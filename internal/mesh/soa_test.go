package mesh

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func tetra() *Mesh {
	m := New(4, 4)
	m.Vertices = []geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}}
	m.Faces = []Face{{0, 2, 1}, {0, 1, 3}, {0, 3, 2}, {1, 2, 3}}
	return m
}

func TestSoAMatchesTriangles(t *testing.T) {
	m := tetra()
	s := m.SoA()
	if s.Len() != m.NumFaces() {
		t.Fatalf("SoA len %d want %d", s.Len(), m.NumFaces())
	}
	for i := 0; i < m.NumFaces(); i++ {
		if s.At(i) != m.Triangle(i) {
			t.Fatalf("face %d: SoA %v want %v", i, s.At(i), m.Triangle(i))
		}
	}
	if again := m.SoA(); again != s {
		t.Fatal("SoA not memoized: second call returned a different packing")
	}
}

func TestSoAInvalidatedByTransforms(t *testing.T) {
	m := tetra()
	before := m.SoA()
	m.Translate(geom.Vec3{X: 3})
	after := m.SoA()
	if after == before {
		t.Fatal("Translate did not invalidate the SoA memo")
	}
	if got, want := after.At(0), m.Triangle(0); got != want {
		t.Fatalf("post-translate SoA stale: %v want %v", got, want)
	}
	m.Scale(2)
	scaled := m.SoA()
	if scaled == after {
		t.Fatal("Scale did not invalidate the SoA memo")
	}
	if got, want := scaled.At(2), m.Triangle(2); got != want {
		t.Fatalf("post-scale SoA stale: %v want %v", got, want)
	}
}

func TestFootprintBytesGrowsWithMemos(t *testing.T) {
	m := tetra()
	base := m.FootprintBytes()
	if base != int64(len(m.Vertices))*24+int64(len(m.Faces))*12 {
		t.Fatalf("cold footprint %d unexpected", base)
	}
	m.SoA()
	withSoA := m.FootprintBytes()
	// 15 lanes of four faces, and the one block box that covers them.
	if want := base + int64(m.NumFaces())*15*8 + 6*8; withSoA != want {
		t.Fatalf("footprint with SoA %d want %d", withSoA, want)
	}
	m.Translate(geom.Vec3{Y: 1})
	if got := m.FootprintBytes(); got != base {
		t.Fatalf("footprint after invalidation %d want %d", got, base)
	}
}

// TestPointInSoAMatchesTriangles checks the lane-native containment test
// against the []Triangle reference on closed meshes, with the lanes in face
// order and — after Tree re-lays the memo — in tree order: crossing parity
// must not depend on the order.
func TestPointInSoAMatchesTriangles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tube := Tube([]geom.Vec3{{}, {X: 4}, {X: 6, Y: 3}, {X: 6, Y: 6, Z: 2}}, []float64{1, 0.8, 0.8, 0.5}, 8)
	for name, m := range map[string]*Mesh{"sphere": Icosphere(3, 2), "ellipsoid": Ellipsoid(6, 4, 3, 2), "tube": tube} {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tris := m.Triangles()
		faceOrder := m.SoA()
		m.Tree()
		treeOrder := m.SoA()
		if treeOrder == faceOrder {
			t.Fatalf("%s: Tree did not re-lay the SoA memo", name)
		}
		b := m.Bounds().Expand(0.5)
		inside := 0
		for i := 0; i < 1500; i++ {
			p := b.Min.Add(geom.V(rng.Float64()*b.Size().X, rng.Float64()*b.Size().Y, rng.Float64()*b.Size().Z))
			want := geom.PointInTriangles(p, tris)
			if want {
				inside++
			}
			if got := geom.PointInSoA(p, faceOrder); got != want {
				t.Fatalf("%s: point %v in face order: %v, want %v", name, p, got, want)
			}
			if got := geom.PointInSoA(p, treeOrder); got != want {
				t.Fatalf("%s: point %v in tree order: %v, want %v", name, p, got, want)
			}
		}
		if inside == 0 || inside == 1500 {
			t.Fatalf("%s: %d of 1500 samples inside; the case tests one side only", name, inside)
		}
	}
}
