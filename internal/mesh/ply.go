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
	return m.writeLines(bw)
}
