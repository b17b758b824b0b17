package geom

import (
	"math"
	"math/rand"
	"testing"
)

// Degenerate triangles (needles, points, collinear slivers) show up in
// damaged meshes; the predicates must stay sound on them (a needle far away
// must not report an intersection — this exact false positive once broke
// the engine's accelerator-consistency tests).

func needle(a, b Vec3) Triangle {
	mid := a.Lerp(b, 0.5)
	return Triangle{a, mid, b}
}

func TestDegenerateTriTriIntersectFarApart(t *testing.T) {
	solid := Triangle{V(0, 0, 0), V(1, 0, 0), V(0, 1, 0)}
	farNeedle := needle(V(10, 10, 10), V(10, 11, 10))
	if TriTriIntersect(solid, farNeedle) {
		t.Error("distant needle reported intersecting")
	}
	if TriTriIntersect(farNeedle, solid) {
		t.Error("distant needle reported intersecting (swapped)")
	}
	point := Triangle{V(5, 5, 5), V(5, 5, 5), V(5, 5, 5)}
	if TriTriIntersect(solid, point) {
		t.Error("distant point-triangle reported intersecting")
	}
}

func TestDegenerateTriTriIntersectTouching(t *testing.T) {
	solid := Triangle{V(0, 0, 0), V(2, 0, 0), V(0, 2, 0)}
	// Needle piercing the triangle's plane inside its area, endpoints on
	// opposite sides — as a segment it crosses; as a zero-area triangle it
	// touches the solid triangle at the crossing point.
	crossing := needle(V(0.5, 0.5, -1), V(0.5, 0.5, 1))
	if !TriTriIntersect(solid, crossing) {
		t.Error("crossing needle reported disjoint")
	}
	// Needle lying inside the triangle's plane across its interior.
	inPlane := needle(V(-1, 0.5, 0), V(3, 0.5, 0))
	if !TriTriIntersect(solid, inPlane) {
		t.Error("in-plane needle reported disjoint")
	}
	// Needle touching exactly at a vertex.
	atVertex := needle(V(0, 0, 0), V(-1, -1, 0))
	if !TriTriIntersect(solid, atVertex) {
		t.Error("vertex-touching needle reported disjoint")
	}
}

func TestDegenerateTriTriDist(t *testing.T) {
	solid := Triangle{V(0, 0, 0), V(1, 0, 0), V(0, 1, 0)}
	n := needle(V(0.25, 0.25, 3), V(0.25, 0.25, 5))
	if got := TriTriDist(solid, n); math.Abs(got-3) > 1e-12 {
		t.Errorf("needle dist = %v, want 3", got)
	}
	// Two needles.
	n2 := needle(V(0, 0, 0), V(1, 0, 0))
	n3 := needle(V(0, 2, 0), V(1, 2, 0))
	if got := TriTriDist(n2, n3); math.Abs(got-2) > 1e-12 {
		t.Errorf("needle-needle dist = %v, want 2", got)
	}
	// Point triangle.
	p := Triangle{V(0, 0, 7), V(0, 0, 7), V(0, 0, 7)}
	if got := TriTriDist(solid, p); math.Abs(got-7) > 1e-12 {
		t.Errorf("point dist = %v, want 7", got)
	}
}

// Property: for random pairs where one triangle is squashed flat, the
// distance must equal the distance computed against the needle's spine
// segment — and intersection must agree with distance == 0.
func TestDegenerateConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		solid := randomTriangle(rng, 3)
		if solid.IsDegenerate() {
			continue
		}
		a := V(rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*8-4)
		b := V(rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*8-4)
		nd := needle(a, b)

		inter := TriTriIntersect(solid, nd)
		d := TriTriDist(solid, nd)
		if inter != (d == 0) {
			t.Fatalf("needle intersect=%v but dist=%v", inter, d)
		}
		// Reference: min over segment endpoints/edges.
		want := math.Min(solid.DistToPoint(a), solid.DistToPoint(b))
		seg := Segment{a, b}
		for e := 0; e < 3; e++ {
			edge := Segment{solid.Vertex(e), solid.Vertex((e + 1) % 3)}
			if sd := seg.Dist(edge); sd < want {
				want = sd
			}
		}
		// A segment can also pierce the face: then distance 0 via the
		// crossing; detect with a crossing test.
		if crossesFace(solid, a, b) {
			want = 0
		}
		if math.Abs(d-want) > 1e-9 {
			t.Fatalf("needle dist=%v, reference=%v (solid=%v needle=%v)", d, want, solid, nd)
		}
	}
}

// crossesFace reports whether segment ab crosses the (open) face of tri.
func crossesFace(tri Triangle, a, b Vec3) bool { return crossesFaceWithin(tri, a, b, 1e-12) }

// crossesFaceWithin is crossesFace with the distance tol at which the
// crossing point counts as on the face.
func crossesFaceWithin(tri Triangle, a, b Vec3, tol float64) bool {
	n := tri.Normal()
	da := n.Dot(a.Sub(tri.A))
	db := n.Dot(b.Sub(tri.A))
	if da*db > 0 {
		return false
	}
	if da == db {
		return false // parallel in plane; edge distances cover it
	}
	t := da / (da - db)
	p := a.Lerp(b, t)
	return tri.ClosestPointToPoint(p).Dist(p) < tol
}
