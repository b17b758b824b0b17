package mesh

import (
	"bufio"
	"fmt"
	"io"
)

// WritePLY writes the mesh as an ascii PLY 1.0 file.
func (m *Mesh) WritePLY(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ply\nformat ascii 1.0\ncomment produced by 3dpro\n")
	fmt.Fprintf(bw, "element vertex %d\n", len(m.Vertices))
	fmt.Fprintf(bw, "property double x\nproperty double y\nproperty double z\n")
	fmt.Fprintf(bw, "element face %d\n", len(m.Faces))
	fmt.Fprintf(bw, "property list uchar int vertex_indices\n")
	fmt.Fprintf(bw, "end_header\n")
	for _, v := range m.Vertices {
		fmt.Fprintf(bw, "%g %g %g\n", v.X, v.Y, v.Z)
	}
	for _, f := range m.Faces {
		fmt.Fprintf(bw, "3 %d %d %d\n", f[0], f[1], f[2])
	}
	return bw.Flush()
}
