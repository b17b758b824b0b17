package mesh

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestWritePLYGolden pins the exact ASCII PLY that `3dpro decode` and the
// server's mesh export emit, here for the tetrahedron on four corners of the
// cube [-1, 1]³ (Tetrahedron(√3)).
func TestWritePLYGolden(t *testing.T) {
	const want = `ply
format ascii 1.0
comment produced by 3dpro
element vertex 4
property double x
property double y
property double z
element face 4
property list uchar int vertex_indices
end_header
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 1 2
3 0 3 1
3 0 2 3
3 1 3 2
`
	var buf bytes.Buffer
	if err := Tetrahedron(math.Sqrt(3)).WritePLY(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("WritePLY:\n%s\nwant:\n%s", got, want)
	}
}

// TestPLYOFFEquivalence holds the two text exports of one mesh to the same
// vertex and face lines after their headers.
func TestPLYOFFEquivalence(t *testing.T) {
	m := Ellipsoid(3, 2, 1, 1)
	var off, ply bytes.Buffer
	if err := m.WriteOFF(&off); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePLY(&ply); err != nil {
		t.Fatal(err)
	}
	_, offBody, okOFF := strings.Cut(off.String(), fmt.Sprintf("OFF\n%d %d 0\n", m.NumVertices(), m.NumFaces()))
	_, plyBody, okPLY := strings.Cut(ply.String(), "end_header\n")
	if !okOFF || !okPLY {
		t.Fatalf("headers not found:\n%s\n%s", off.String(), ply.String())
	}
	if offBody != plyBody {
		t.Errorf("OFF and PLY bodies differ:\n%s\nvs\n%s", offBody, plyBody)
	}
}
