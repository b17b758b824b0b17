package aabbtree_test

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/index/aabbtree"
	"repro/internal/mesh"
)

// containmentFixtures are closed surfaces that stress the +X cast from
// different sides: quasi-convex nuclei, multi-component vessels, a cube
// whose faces are parallel to the ray (every cast through it re-casts) and
// a needle a thousand times longer along the ray than across it.
func containmentFixtures() map[string]*mesh.Mesh {
	needle := mesh.Icosphere(1, 2)
	for i, v := range needle.Vertices {
		needle.Vertices[i] = geom.V(1000*v.X, v.Y, 0.5*v.Z)
	}
	return map[string]*mesh.Mesh{
		"nucleus": datagen.Nuclei(datagen.NucleiOptions{Count: 1, SubdivisionLevel: 2, Seed: 3})[0],
		"vessel":  datagen.Vessels(datagen.VesselOptions{Count: 1, RingSegments: 8, PathPoints: 8, Seed: 8})[0],
		"cube":    mesh.Cube(geom.V(-1, 2, 3), geom.V(4, 5, 9)),
		"needle":  needle,
	}
}

// probePoints draws n points that a ray-casting containment test finds
// easy (random in the box), hard (just off a face, on an edge, on a vertex)
// or degenerate for the +X cast in particular (on the plane y = vertex.y,
// where the ray grazes the vertex's edges, and on the line through a vertex
// along X, where it hits the vertex itself).
func probePoints(rng *rand.Rand, m *mesh.Mesh, n int) []geom.Vec3 {
	box := m.Bounds()
	diag := box.Diagonal()
	inBox := func() geom.Vec3 {
		s := box.Size()
		return box.Min.Add(geom.V(rng.Float64()*s.X, rng.Float64()*s.Y, rng.Float64()*s.Z))
	}
	pts := make([]geom.Vec3, 0, n)
	for len(pts) < n {
		tri := m.Triangle(rng.Intn(len(m.Faces)))
		vert := m.Vertices[rng.Intn(len(m.Vertices))]
		switch p := inBox(); len(pts) % 6 {
		case 0:
			pts = append(pts, p)
		case 1:
			u, v := rng.Float64(), rng.Float64()
			if u+v > 1 {
				u, v = 1-u, 1-v
			}
			on := tri.A.Add(tri.B.Sub(tri.A).Mul(u)).Add(tri.C.Sub(tri.A).Mul(v))
			nudge := tri.UnitNormal().Mul(1e-9 * diag)
			pts = append(pts, on.Add(nudge), on.Sub(nudge))
		case 2:
			pts = append(pts, tri.A.Lerp(tri.B, rng.Float64()))
		case 3:
			pts = append(pts, vert)
		case 4:
			pts = append(pts, geom.V(p.X, vert.Y, p.Z))
		case 5:
			pts = append(pts, geom.V(p.X, vert.Y, vert.Z))
		}
	}
	return pts[:n]
}

// onSurface reports whether p lies within tol of the surface.
func onSurface(p geom.Vec3, m *mesh.Mesh, tol float64) bool {
	for i := range m.Faces {
		if m.Triangle(i).DistToPoint(p) <= tol {
			return true
		}
	}
	return false
}

// TestContainsPointMatchesGeneric holds the +X-specialised ContainsPoint to
// the algorithm it replaced on every probe point — including points on the
// surface, where the answer is a convention but must stay the same
// convention — and, off the surface, to the brute-force geom.PointInSoA
// (on it the tree cast and the brute cast already differed: they see
// different triangles, so they re-cast at different times).
func TestContainsPointMatchesGeneric(t *testing.T) {
	for name, m := range containmentFixtures() {
		tree := aabbtree.BuildSoA(m.SoA())
		rng := rand.New(rand.NewSource(18))
		inside, offSurface, tol := 0, 0, 1e-12*m.Bounds().Diagonal()
		for i, p := range probePoints(rng, m, 10000) {
			got := tree.ContainsPoint(p)
			if want := tree.ContainsPointGeneric(p); got != want {
				t.Fatalf("%s: point %d %v: ContainsPoint = %v, generic descent = %v", name, i, p, got, want)
			}
			if got {
				inside++
			}
			if onSurface(p, m, tol) {
				continue
			}
			offSurface++
			if want := m.Bounds().ContainsPoint(p) && geom.PointInSoA(p, tree.SoA()); got != want {
				t.Fatalf("%s: point %d %v: ContainsPoint = %v, PointInSoA = %v", name, i, p, got, want)
			}
		}
		if inside == 0 || inside == 10000 || offSurface < 5000 {
			t.Errorf("%s: %d of 10000 probe points inside, %d off the surface; the probes do not straddle it", name, inside, offSurface)
		}
	}
}

func BenchmarkContainsPoint(b *testing.B) {
	for _, name := range []string{"nucleus", "vessel"} {
		m := containmentFixtures()[name]
		tree := aabbtree.BuildSoA(m.SoA())
		pts := probePoints(rand.New(rand.NewSource(18)), m, 4096)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree.ContainsPoint(pts[i%len(pts)])
			}
		})
	}
}
