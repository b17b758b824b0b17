package ppvp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// quantizer snaps coordinates to a per-axis uniform grid spanning the mesh
// bounds with 2^bits cells, the "adaptive quantization" stage of the paper's
// compression pipeline.
type quantizer struct {
	origin geom.Vec3
	cell   geom.Vec3
}

func newQuantizer(b geom.Box3, bits int) quantizer {
	steps := float64(uint64(1)<<uint(bits)) - 1
	size := b.Size()
	cell := geom.V(size.X/steps, size.Y/steps, size.Z/steps)
	if cell.X <= 0 {
		cell.X = 1
	}
	if cell.Y <= 0 {
		cell.Y = 1
	}
	if cell.Z <= 0 {
		cell.Z = 1
	}
	return quantizer{origin: b.Min, cell: cell}
}

func (q quantizer) encode(p geom.Vec3) (x, y, z uint32) {
	return uint32(math.Round((p.X - q.origin.X) / q.cell.X)),
		uint32(math.Round((p.Y - q.origin.Y) / q.cell.Y)),
		uint32(math.Round((p.Z - q.origin.Z) / q.cell.Z))
}

func (q quantizer) decode(x, y, z uint32) geom.Vec3 {
	return geom.V(
		q.origin.X+float64(x)*q.cell.X,
		q.origin.Y+float64(y)*q.cell.Y,
		q.origin.Z+float64(z)*q.cell.Z,
	)
}

func (q quantizer) snap(p geom.Vec3) geom.Vec3 {
	return q.decode(q.encode(p))
}

// Compress encodes m with progressive protruding-vertex pruning (or PPMC
// when opts.Policy is PruneAny). The mesh must be a closed 2-manifold.
// Vertex coordinates are quantized before decimation, so decoding the
// highest LOD reproduces the quantized mesh exactly.
func Compress(m *mesh.Mesh, opts Options) (*Compressed, Stats, error) {
	opts.setDefaults()
	var stats Stats
	if err := m.Validate(); err != nil {
		return nil, stats, fmt.Errorf("%w: %v", ErrInvalidMesh, err)
	}
	bounds := m.Bounds()
	quant := newQuantizer(bounds, opts.QuantBits)

	// Snap all vertices to the quantization grid up front so every stage of
	// the pipeline (including the protruding test) sees the stored values.
	verts := make([]geom.Vec3, len(m.Vertices))
	for i, v := range m.Vertices {
		verts[i] = quant.snap(v)
	}

	w := newWork(verts, m.Faces)
	stats.FacesPerRound = append(stats.FacesPerRound, w.nfaces)

	var encodeRounds []round
	for r := 0; r < opts.Rounds; r++ {
		ops := w.decimateRound(opts.Policy, opts.MinFaces, &stats)
		if len(ops) == 0 {
			break
		}
		encodeRounds = append(encodeRounds, round{ops: ops})
		stats.FacesPerRound = append(stats.FacesPerRound, w.nfaces)
		stats.RoundsRun++
	}

	// Base mesh: the surviving faces in sorted key order (part of the
	// bitstream) over the compacted surviving vertices; permanent IDs start
	// with the base vertices in ascending original order.
	perm := make([]int32, len(w.verts))
	base := mesh.New(0, w.nfaces)
	for i, dead := range w.dead {
		perm[i] = -1
		if !dead {
			perm[i] = int32(len(base.Vertices))
			base.Vertices = append(base.Vertices, w.verts[i])
		}
	}
	next := int32(len(base.Vertices))
	base.Faces = append(base.Faces, w.liveFaces()...)
	slices.SortFunc(base.Faces, cmpFaces)
	for i, f := range base.Faces {
		base.Faces[i] = mesh.Face{perm[f[0]], perm[f[1]], perm[f[2]]}
	}

	// Decode order: undo the last encode round first. Removed vertices are
	// assigned permanent IDs in that order. A ring member of an op was
	// locked during that op's encode round, so it is either a base vertex
	// or a vertex removed in a *later* encode round — i.e. one re-inserted
	// in an *earlier* decode round — so after the first pass below every
	// ring reference has a permanent ID.
	decodeRounds := make([]round, 0, len(encodeRounds))
	for r := len(encodeRounds) - 1; r >= 0; r-- {
		decodeRounds = append(decodeRounds, encodeRounds[r])
	}
	for _, rd := range decodeRounds {
		for i := range rd.ops {
			perm[rd.ops[i].origIdx] = next
			next++
		}
	}
	for _, rd := range decodeRounds {
		for i := range rd.ops {
			for j, rv := range rd.ops[i].ring {
				rd.ops[i].ring[j] = perm[rv]
			}
		}
	}

	c, err := assemble(base, decodeRounds, quant, opts, bounds, len(m.Vertices), len(m.Faces))
	if err != nil {
		return nil, stats, err
	}
	return c, stats, nil
}
