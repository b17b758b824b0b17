package mesh

import (
	"encoding/binary"
	"io"
	"math"
)

// WKB export for PostGIS interop: meshes serialize as the EWKB/ISO-WKB
// POLYHEDRALSURFACE Z geometry PostGIS's 3D functions consume (the paper
// loads its polyhedrons into PostGIS for the §6.6 comparison). Each
// triangle becomes one POLYGON Z patch whose ring repeats the first vertex
// at the end, exactly as ST_AsBinary emits it.

const (
	wkbPolyhedralSurfaceZ = 1015 // ISO type: PolyhedralSurface + 1000 (Z)
	wkbPolygonZ           = 1003 // ISO type: Polygon + 1000 (Z)
)

// WriteWKB writes the mesh as a little-endian ISO WKB POLYHEDRALSURFACE Z.
func (m *Mesh) WriteWKB(w io.Writer) error {
	buf := make([]byte, 0, 9+len(m.Faces)*(9+4+4*4*8))
	buf = append(buf, 1) // little endian
	buf = binary.LittleEndian.AppendUint32(buf, wkbPolyhedralSurfaceZ)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Faces)))
	for _, f := range m.Faces {
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint32(buf, wkbPolygonZ)
		buf = binary.LittleEndian.AppendUint32(buf, 1) // one ring
		buf = binary.LittleEndian.AppendUint32(buf, 4) // closed triangle ring
		for _, idx := range []int32{f[0], f[1], f[2], f[0]} {
			v := m.Vertices[idx]
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.X))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Y))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Z))
		}
	}
	_, err := w.Write(buf)
	return err
}
