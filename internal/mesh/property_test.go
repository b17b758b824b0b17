package mesh

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// edgeSet returns the undirected edges of m.
func edgeSet(m *Mesh) map[EdgeKey]bool {
	edges := make(map[EdgeKey]bool, 3*len(m.Faces)/2)
	for _, f := range m.Faces {
		for k := 0; k < 3; k++ {
			edges[MakeEdgeKey(f[k], f[(k+1)%3])] = true
		}
	}
	return edges
}

// eulerCharacteristic returns V - E + F: 2 - 2g for a closed surface of
// genus g, so 2 for a topological sphere.
func eulerCharacteristic(m *Mesh) int {
	return len(m.Vertices) - len(edgeSet(m)) + len(m.Faces)
}

func surfaceArea(m *Mesh) float64 {
	var a float64
	for i := range m.Faces {
		a += m.Triangle(i).Normal().Len() / 2
	}
	return a
}

func clone(m *Mesh) *Mesh {
	return &Mesh{Vertices: slices.Clone(m.Vertices), Faces: slices.Clone(m.Faces)}
}

// Property: subdivision preserves the closed-manifold invariants and the
// Euler characteristic, quadruples faces, and never shrinks the volume of a
// convex shape (midpoints lie on chords, re-projection pushes them out).
func TestSubdivisionInvariants(t *testing.T) {
	m := Icosahedron(1)
	for level := 0; level < 3; level++ {
		next := subdivide(m)
		if next.NumFaces() != 4*m.NumFaces() {
			t.Fatalf("level %d: faces %d, want %d", level, next.NumFaces(), 4*m.NumFaces())
		}
		if err := next.Validate(); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if chi := eulerCharacteristic(next); chi != 2 {
			t.Fatalf("level %d: Euler characteristic %d", level, chi)
		}
		// V - E + F = 2 with F = 4F₀ forces E = 2E₀ + 3F₀... just check
		// consistency with the handshake lemma: 2E = 3F.
		if 2*len(edgeSet(next)) != 3*next.NumFaces() {
			t.Fatalf("level %d: handshake violated", level)
		}
		m = next
	}
}

// Property: translating a mesh moves its centroid by exactly the offset and
// leaves volume and area unchanged; scaling by s scales volume by s³ and
// area by s².
func TestRigidMotionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		m := Ellipsoid(1+rng.Float64()*3, 1+rng.Float64()*3, 1+rng.Float64()*3, 1)
		vol, area, cen := m.Volume(), surfaceArea(m), m.Centroid()

		d := geom.V(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10)
		moved := clone(m)
		moved.Translate(d)
		if math.Abs(moved.Volume()-vol) > 1e-9*math.Abs(vol)+1e-9 {
			t.Fatalf("translation changed volume: %v vs %v", moved.Volume(), vol)
		}
		if math.Abs(surfaceArea(moved)-area) > 1e-9*area {
			t.Fatalf("translation changed area")
		}
		if !moved.Centroid().ApproxEqual(cen.Add(d), 1e-6) {
			t.Fatalf("centroid moved to %v, want %v", moved.Centroid(), cen.Add(d))
		}

		s := 0.5 + rng.Float64()*2
		scaled := clone(m)
		scaled.Scale(s)
		if math.Abs(scaled.Volume()-vol*s*s*s) > 1e-6*math.Abs(vol*s*s*s) {
			t.Fatalf("scale volume: %v vs %v", scaled.Volume(), vol*s*s*s)
		}
		if math.Abs(surfaceArea(scaled)-area*s*s) > 1e-6*area*s*s {
			t.Fatalf("scale area")
		}
	}
}

// Property: for closed meshes, the divergence-theorem volume is independent
// of which vertex ordering rotation each face uses.
func TestVolumeRotationInvariant(t *testing.T) {
	m := Icosphere(2, 1)
	vol := m.Volume()
	rot := clone(m)
	for i, f := range rot.Faces {
		switch i % 3 {
		case 1:
			rot.Faces[i] = Face{f[1], f[2], f[0]}
		case 2:
			rot.Faces[i] = Face{f[2], f[0], f[1]}
		}
	}
	if math.Abs(rot.Volume()-vol) > 1e-9 {
		t.Fatalf("volume changed under face rotation: %v vs %v", rot.Volume(), vol)
	}
	if err := rot.Validate(); err != nil {
		t.Fatalf("rotated faces broke validation: %v", err)
	}
}

// Property: every interior point sampled via barycentric interpolation of a
// face, pushed slightly inward along the inward normal, is contained in the
// closed mesh.
func TestSurfaceAdjacentContainment(t *testing.T) {
	m := Icosphere(3, 2)
	rng := rand.New(rand.NewSource(9))
	tris := m.Triangles()
	for i := 0; i < 200; i++ {
		tri := tris[rng.Intn(len(tris))]
		u := rng.Float64() * 0.8
		v := rng.Float64() * (0.8 - u)
		p := tri.A.Mul(1 - u - v).Add(tri.B.Mul(u)).Add(tri.C.Mul(v))
		inward := tri.UnitNormal().Neg()
		q := p.Add(inward.Mul(0.05))
		if !m.ContainsPoint(q) {
			t.Fatalf("inward-nudged surface point %v not contained", q)
		}
		out := p.Add(inward.Mul(-0.05))
		if m.ContainsPoint(out) {
			t.Fatalf("outward-nudged surface point %v contained", out)
		}
	}
}
