package mesh

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
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

// TestTextWritersMatchFmt holds WritePLY and WriteOFF byte-identical to the
// fmt formatting they replace — "%g %g %g\n" per vertex, "3 %d %d %d\n" per
// face — on random meshes whose coordinates include −0, subnormals,
// ±1e±300, integers and values that need 17 significant digits. Meshes run
// to a few hundred vertices so the lines cross the writer's buffer.
func TestTextWritersMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tenth := 0.1
	special := []float64{
		0, math.Copysign(0, -1), // ±0
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 2.2250738585072e-310, // subnormals
		1e300, -1e300, 1e-300, -1e-300, math.MaxFloat64,
		42, -7, 1 << 53, 1e21, 123456789,
		tenth + 0.2, 1.0000000000000002, math.Pi, -123456.78901234567, // 17 digits
	}
	coord := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return float64(rng.Intn(2001) - 1000)
		case 2:
			return math.Float64frombits(rng.Uint64())
		default:
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(41)-20))
		}
	}
	index := func(nv int) int32 {
		if rng.Intn(8) == 0 {
			return rng.Int31()
		}
		return int32(rng.Intn(nv))
	}
	for iter := 0; iter < 200; iter++ {
		m := &Mesh{}
		nv := 1 + rng.Intn(300)
		for i := 0; i < nv; i++ {
			m.Vertices = append(m.Vertices, geom.V(coord(), coord(), coord()))
		}
		for i := rng.Intn(2 * nv); i > 0; i-- {
			m.Faces = append(m.Faces, Face{index(nv), index(nv), index(nv)})
		}
		var body strings.Builder
		for _, v := range m.Vertices {
			fmt.Fprintf(&body, "%g %g %g\n", v.X, v.Y, v.Z)
		}
		for _, f := range m.Faces {
			fmt.Fprintf(&body, "3 %d %d %d\n", f[0], f[1], f[2])
		}
		nf := len(m.Faces)
		wantOFF := fmt.Sprintf("OFF\n%d %d 0\n", nv, nf) + body.String()
		wantPLY := fmt.Sprintf("ply\nformat ascii 1.0\ncomment produced by 3dpro\n"+
			"element vertex %d\nproperty double x\nproperty double y\nproperty double z\n"+
			"element face %d\nproperty list uchar int vertex_indices\nend_header\n", nv, nf) + body.String()

		var off, ply bytes.Buffer
		if err := m.WriteOFF(&off); err != nil {
			t.Fatal(err)
		}
		if err := m.WritePLY(&ply); err != nil {
			t.Fatal(err)
		}
		if got := off.String(); got != wantOFF {
			t.Fatalf("mesh %d: WriteOFF differs from fmt: %s", iter, firstLineDiff(got, wantOFF))
		}
		if got := ply.String(); got != wantPLY {
			t.Fatalf("mesh %d: WritePLY differs from fmt: %s", iter, firstLineDiff(got, wantPLY))
		}
	}
}

// firstLineDiff names the first line where two texts differ.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d is %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
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
