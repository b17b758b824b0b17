package geom

import "math"

// Ray is a half-line starting at Origin in direction Dir (not necessarily
// unit length).
type Ray struct {
	Origin, Dir Vec3
}

// hitKind classifies a ray-triangle intersection for the robust
// point-in-polyhedron test.
type hitKind int

const (
	hitNone       hitKind = iota // no intersection
	hitInside                    // crossing strictly inside the triangle
	hitDegenerate                // grazing a vertex/edge or parallel — re-cast
)

// intersectTriangleEx runs the Möller–Trumbore ray-triangle intersection.
// It returns the parameter t (point = Origin + t*Dir) and whether the ray
// crosses the triangle's interior with t > 0, misses it, or grazes it and
// must be re-cast.
func (r Ray) intersectTriangleEx(tri Triangle) (float64, hitKind) {
	const eps = 1e-12
	e1 := tri.B.Sub(tri.A)
	e2 := tri.C.Sub(tri.A)
	p := r.Dir.Cross(e2)
	det := e1.Dot(p)
	scale := e1.Len() * e2.Len() * r.Dir.Len()
	if math.Abs(det) <= eps*scale {
		// Ray parallel to (or in) the triangle plane: cannot count crossings
		// reliably. Check whether the ray origin is extremely close to the
		// plane; either way, signal a re-cast.
		return 0, hitDegenerate
	}
	inv := 1 / det
	s := r.Origin.Sub(tri.A)
	u := s.Dot(p) * inv
	if u < 0 || u > 1 {
		if u > -1e-9 && u < 1+1e-9 {
			return 0, hitDegenerate
		}
		return 0, hitNone
	}
	q := s.Cross(e1)
	v := r.Dir.Dot(q) * inv
	if v < 0 || u+v > 1 {
		if v > -1e-9 && u+v < 1+1e-9 {
			return 0, hitDegenerate
		}
		return 0, hitNone
	}
	t := e2.Dot(q) * inv
	if t <= 0 {
		if t > -1e-12 {
			return 0, hitDegenerate // origin on the surface
		}
		return 0, hitNone
	}
	// Grazing hits near edges/vertices are degenerate: they may be counted
	// by two adjacent triangles.
	const edgeEps = 1e-9
	if u < edgeEps || v < edgeEps || u+v > 1-edgeEps {
		return t, hitDegenerate
	}
	return t, hitInside
}

// intersectTriangleX is intersectTriangleEx for the ray from o along
// Dir = {1,0,0}, with the terms the two zero components annihilate left
// out: Dir × e2 = (0, −e2.Z, e2.Y), |Dir| = 1 and Dir·q = q.X. What remains
// is the generic test's arithmetic in the generic test's order, so for
// finite input t and kind are bit-equal to it (TestIntersectTriangleXMatches).
func intersectTriangleX(o Vec3, tri Triangle) (float64, hitKind) {
	const eps = 1e-12
	e1 := tri.B.Sub(tri.A)
	e2 := tri.C.Sub(tri.A)
	det := e1.Z*e2.Y - e1.Y*e2.Z
	if math.Abs(det) <= eps*(e1.Len()*e2.Len()) {
		return 0, hitDegenerate
	}
	inv := 1 / det
	s := o.Sub(tri.A)
	u := (s.Z*e2.Y - s.Y*e2.Z) * inv
	if u < 0 || u > 1 {
		if u > -1e-9 && u < 1+1e-9 {
			return 0, hitDegenerate
		}
		return 0, hitNone
	}
	q := s.Cross(e1)
	v := q.X * inv
	if v < 0 || u+v > 1 {
		if v > -1e-9 && u+v < 1+1e-9 {
			return 0, hitDegenerate
		}
		return 0, hitNone
	}
	t := e2.Dot(q) * inv
	if t <= 0 {
		if t > -1e-12 {
			return 0, hitDegenerate // origin on the surface
		}
		return 0, hitNone
	}
	const edgeEps = 1e-9
	if u < edgeEps || v < edgeEps || u+v > 1-edgeEps {
		return t, hitDegenerate
	}
	return t, hitInside
}

// IntersectBox reports whether the ray intersects the box, using the slab
// method. Used by AABB-tree ray traversal.
func (r Ray) IntersectBox(b Box3) bool {
	tmin, tmax := 0.0, math.Inf(1)
	for i := 0; i < 3; i++ {
		o := r.Origin.Component(i)
		d := r.Dir.Component(i)
		lo := b.Min.Component(i)
		hi := b.Max.Component(i)
		if math.Abs(d) < 1e-300 {
			if o < lo || o > hi {
				return false
			}
			continue
		}
		inv := 1 / d
		t1 := (lo - o) * inv
		t2 := (hi - o) * inv
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		if t1 > tmin {
			tmin = t1
		}
		if t2 < tmax {
			tmax = t2
		}
		if tmin > tmax {
			return false
		}
	}
	return true
}

// rayDirections is a set of well-spread directions tried in order by
// PointInMesh when a cast hits a degenerate configuration.
var rayDirections = []Vec3{
	{1, 0, 0},
	{0.5370861555295747, 0.8435650784534205, 0.011327694223452235},
	{-0.2886751345948129, 0.5773502691896258, 0.7637626158259733},
	{0.9341723589627157, -0.3568220897730899, 0.0138937305841684},
	{-0.1812615574, 0.3625231148, -0.9141623913},
	{0.7071067811865476, -0.1414213562373095, 0.6928203230275509},
	{-0.6, 0.64, 0.48},
	{0.4242640687119285, 0.565685424949238, -0.7071067811865476},
}

// RayDirections returns the well-spread cast directions used by the robust
// point-in-polyhedron tests. Callers iterate them in order, re-casting after
// a degenerate hit. The returned slice must not be modified.
func RayDirections() []Vec3 { return rayDirections }

// RayCrossesTriangle reports whether r crosses the interior of tri
// (crossings = 1) or misses it (0). ok is false when the configuration is
// degenerate (grazing an edge or vertex, origin on the surface, or a
// parallel ray) and the caller should re-cast along a different direction.
func RayCrossesTriangle(r Ray, tri Triangle) (crossings int, ok bool) {
	_, kind := r.intersectTriangleEx(tri)
	switch kind {
	case hitInside:
		return 1, true
	case hitDegenerate:
		return 0, false
	default:
		return 0, true
	}
}

// CrossingsX counts how many of the triangles s[lo:hi) the ray from o along
// +X — the first of RayDirections — crosses in their interior. ok is false
// as soon as one of them is a degenerate hit, as for RayCrossesTriangle.
func CrossingsX(o Vec3, s *TriSoA, lo, hi int) (crossings int, ok bool) {
	for i := lo; i < hi; i++ {
		switch _, kind := intersectTriangleX(o, s.At(i)); kind {
		case hitInside:
			crossings++
		case hitDegenerate:
			return 0, false
		}
	}
	return crossings, true
}

// PointInTriangles reports whether p lies inside the closed surface defined
// by tris, using ray casting with crossing parity. Degenerate hits trigger a
// re-cast along a different direction; if every direction degenerates (which
// in practice never happens for valid closed meshes) the last parity is
// returned.
//
// The tris slice must describe a closed, watertight surface for the answer
// to be meaningful.
func PointInTriangles(p Vec3, tris []Triangle) bool {
	parity := false
	for _, dir := range rayDirections {
		r := Ray{Origin: p, Dir: dir}
		crossings := 0
		ok := true
		for _, t := range tris {
			_, kind := r.intersectTriangleEx(t)
			switch kind {
			case hitInside:
				crossings++
			case hitDegenerate:
				ok = false
			}
			if !ok {
				break
			}
		}
		parity = crossings%2 == 1
		if ok {
			return parity
		}
	}
	return parity
}

// PointInSoA is PointInTriangles over SoA lanes, in whatever order they are
// laid out: crossing parity does not depend on triangle order.
func PointInSoA(p Vec3, s *TriSoA) bool {
	parity := false
	for _, dir := range rayDirections {
		r := Ray{Origin: p, Dir: dir}
		crossings := 0
		ok := true
		for i, n := 0, s.Len(); i < n && ok; i++ {
			switch _, kind := r.intersectTriangleEx(s.At(i)); kind {
			case hitInside:
				crossings++
			case hitDegenerate:
				ok = false
			}
		}
		parity = crossings%2 == 1
		if ok {
			return parity
		}
	}
	return parity
}
