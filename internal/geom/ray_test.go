package geom

import (
	"math"
	"math/rand"
	"testing"
)

// unitCubeTris returns the 12 CCW-oriented triangles of the axis-aligned
// cube [0,1]^3 with outward normals.
func unitCubeTris() []Triangle {
	v := []Vec3{
		{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}, // bottom z=0
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}, // top z=1
	}
	quads := [][4]int{
		{3, 2, 1, 0}, // bottom (normal -Z)
		{4, 5, 6, 7}, // top (+Z)
		{0, 1, 5, 4}, // front (-Y)
		{2, 3, 7, 6}, // back (+Y)
		{1, 2, 6, 5}, // right (+X)
		{3, 0, 4, 7}, // left (-X)
	}
	var tris []Triangle
	for _, q := range quads {
		tris = append(tris,
			Triangle{v[q[0]], v[q[1]], v[q[2]]},
			Triangle{v[q[0]], v[q[2]], v[q[3]]})
	}
	return tris
}

func TestRayIntersectTriangle(t *testing.T) {
	tr := Triangle{V(0, 0, 0), V(2, 0, 0), V(0, 2, 0)}
	r := Ray{Origin: V(0.3, 0.3, -1), Dir: V(0, 0, 1)}
	tt, kind := r.intersectTriangleEx(tr)
	if kind != hitInside || tt != 1 {
		t.Errorf("hit = %v,%v, want t=1 inside", tt, kind)
	}

	// Miss.
	r2 := Ray{Origin: V(5, 5, -1), Dir: V(0, 0, 1)}
	if _, kind := r2.intersectTriangleEx(tr); kind != hitNone {
		t.Error("miss reported as hit")
	}

	// Ray pointing away.
	r3 := Ray{Origin: V(0.3, 0.3, -1), Dir: V(0, 0, -1)}
	if _, kind := r3.intersectTriangleEx(tr); kind != hitNone {
		t.Error("backward ray reported as hit")
	}
}

func TestRayIntersectBox(t *testing.T) {
	b := box(0, 0, 0, 1, 1, 1)
	if !(Ray{Origin: V(-1, 0.5, 0.5), Dir: V(1, 0, 0)}).IntersectBox(b) {
		t.Error("head-on ray missed box")
	}
	if (Ray{Origin: V(-1, 5, 0.5), Dir: V(1, 0, 0)}).IntersectBox(b) {
		t.Error("offset ray hit box")
	}
	if (Ray{Origin: V(2, 0.5, 0.5), Dir: V(1, 0, 0)}).IntersectBox(b) {
		t.Error("ray pointing away hit box")
	}
	// Origin inside the box.
	if !(Ray{Origin: V(0.5, 0.5, 0.5), Dir: V(0, 1, 0)}).IntersectBox(b) {
		t.Error("ray from inside missed box")
	}
	// Axis-parallel, zero direction component within slab.
	if !(Ray{Origin: V(0.5, -1, 0.5), Dir: V(0, 1, 0)}).IntersectBox(b) {
		t.Error("axis-parallel ray missed box")
	}
}

func TestPointInTrianglesCube(t *testing.T) {
	tris := unitCubeTris()
	inside := []Vec3{
		{0.5, 0.5, 0.5}, {0.1, 0.1, 0.1}, {0.9, 0.9, 0.9}, {0.5, 0.2, 0.8},
	}
	outside := []Vec3{
		{1.5, 0.5, 0.5}, {-0.1, 0.5, 0.5}, {0.5, 0.5, 2}, {2, 2, 2}, {-1, -1, -1},
	}
	for _, p := range inside {
		if !PointInTriangles(p, tris) {
			t.Errorf("point %v should be inside the cube", p)
		}
	}
	for _, p := range outside {
		if PointInTriangles(p, tris) {
			t.Errorf("point %v should be outside the cube", p)
		}
	}
}

// Property: random points classified against the cube must match the
// analytic box containment (excluding a thin shell near the boundary where
// robustness is not promised).
func TestPointInTrianglesMatchesBox(t *testing.T) {
	tris := unitCubeTris()
	b := box(0, 0, 0, 1, 1, 1)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		p := V(rng.Float64()*3-1, rng.Float64()*3-1, rng.Float64()*3-1)
		if b.Expand(-1e-6).ContainsPoint(p) != b.ContainsPoint(p) {
			continue // too close to the boundary, skip
		}
		nearBoundary := b.Expand(1e-6).ContainsPoint(p) && !b.Expand(-1e-6).ContainsPoint(p)
		if nearBoundary {
			continue
		}
		want := b.ContainsPoint(p)
		if got := PointInTriangles(p, tris); got != want {
			t.Fatalf("point %v: got inside=%v, want %v", p, got, want)
		}
	}
}

// TestPointInSoARecast pins the degenerate-hit path of the lane-native
// containment test: cast along +X (the first direction) from the cube's
// centre line, the ray leaves through the centre of a face — a point on the
// diagonal the face's two triangles share. That hit must trigger a re-cast,
// not a parity count, for a point inside and for one outside alike.
func TestPointInSoARecast(t *testing.T) {
	tris := unitCubeTris()
	s := SoAFromTriangles(tris)
	for _, c := range []struct {
		p      Vec3
		inside bool
	}{{V(0.5, 0.5, 0.5), true}, {V(-0.5, 0.5, 0.5), false}} {
		degenerate := false
		for _, tri := range tris {
			if _, ok := RayCrossesTriangle(Ray{Origin: c.p, Dir: RayDirections()[0]}, tri); !ok {
				degenerate = true
			}
		}
		if !degenerate {
			t.Fatalf("point %v: the first cast is not degenerate; the case tests nothing", c.p)
		}
		if got := PointInSoA(c.p, s); got != c.inside || got != PointInTriangles(c.p, tris) {
			t.Errorf("point %v: PointInSoA = %v, PointInTriangles = %v, want %v", c.p, got, PointInTriangles(c.p, tris), c.inside)
		}
	}
}

// TestIntersectTriangleXMatches is the differential test the +X
// specialisation is allowed on: (t, kind) must be bit-equal to the generic
// test's for Dir = {1,0,0}, on random triangles and on the inputs built to
// land in each tolerance band — origins whose ray grazes an edge or a
// vertex, triangles coplanar with or parallel to the ray, origins on the
// surface, and all of those at three coordinate scales.
func TestIntersectTriangleXMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	kinds := map[hitKind]int{}
	check := func(o Vec3, tri Triangle) {
		t.Helper()
		gt, gk := Ray{Origin: o, Dir: rayDirections[0]}.intersectTriangleEx(tri)
		xt, xk := intersectTriangleX(o, tri)
		if gk != xk || math.Float64bits(gt) != math.Float64bits(xt) {
			t.Fatalf("origin %v tri %v: generic (%v, %d), +X (%v, %d)", o, tri, gt, gk, xt, xk)
		}
		kinds[gk]++
	}
	for _, unit := range []float64{1e-3, 1, 1e3} {
		r := func() Vec3 {
			return V(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Mul(unit)
		}
		for i := 0; i < 20000; i++ {
			tri := Triangle{r(), r(), r()}
			check(r(), tri)
			// A point of the triangle (interior, edge or vertex, by turns),
			// seen from behind along X, from itself, and from just off it.
			u, v := rng.Float64(), rng.Float64()
			if u+v > 1 {
				u, v = 1-u, 1-v
			}
			switch i % 4 {
			case 1:
				v = 0
			case 2:
				u, v = 0, 0
			case 3:
				u = 1e-9 * rng.Float64() // inside the grazing band
			}
			on := tri.A.Add(tri.B.Sub(tri.A).Mul(u)).Add(tri.C.Sub(tri.A).Mul(v))
			check(on.Sub(V(unit*rng.Float64(), 0, 0)), tri)
			check(on, tri)
			check(on.Add(V(unit*1e-13*(rng.Float64()-0.5), 0, 0)), tri)
			// Triangles the ray lies in or runs parallel to.
			flat := Triangle{tri.A, tri.A.Add(V(unit, 0, 0)), tri.C}
			check(tri.A.Sub(V(unit, 0, 0)), flat)
			check(r(), flat)
			// Axis-aligned faces, as a cube has them.
			check(r(), Triangle{V(tri.A.X, tri.A.Y, tri.A.Z), V(tri.A.X, tri.B.Y, tri.A.Z), V(tri.A.X, tri.B.Y, tri.C.Z)})
		}
	}
	for _, k := range []hitKind{hitNone, hitInside, hitDegenerate} {
		if kinds[k] < 1000 {
			t.Errorf("only %d inputs classified %d; the differential test does not cover that outcome", kinds[k], k)
		}
	}
}
