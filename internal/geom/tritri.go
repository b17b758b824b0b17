package geom

import "math"

// TriTriIntersect reports whether triangles t1 and t2 intersect (share at
// least one point). It implements Möller's interval-overlap test ("A Fast
// Triangle-Triangle Intersection Test", 1997) with a coplanar fallback.
//
// This is the primitive operation evaluated pairwise in the refinement step
// of intersection joins; the engine calls it millions of times, so it avoids
// allocation entirely.
func TriTriIntersect(t1, t2 Triangle) bool {
	n1, n2 := t1.Normal(), t2.Normal()
	nn1, nn2 := n1.Len2(), n2.Len2()
	// Degenerate (zero-area) triangles have no usable plane; the interval
	// test would misclassify them as coplanar. Since a degenerate triangle
	// has no interior to penetrate, the feature-pair distance is exact:
	// they intersect iff it is zero. The path is rare; it asks for the
	// distance itself, so the two functions cannot contradict each other.
	if t1.degenerate(nn1) || t2.degenerate(nn2) {
		return TriTriDist2(t1, t2) == 0
	}
	du0, du1, du2 := planeDists(n2, nn2, t2.A, t1)
	if du0*du1 > 0 && du0*du2 > 0 {
		return false // t1 entirely on one side of t2's plane
	}
	dv0, dv1, dv2 := planeDists(n1, nn1, t1.A, t2)
	if dv0*dv1 > 0 && dv0*dv2 > 0 {
		return false
	}
	return intervalsOverlap(t1, t2, n1, n2, nn1, nn2, du0, du1, du2, dv0, dv1, dv2)
}

// planeDists returns the signed distances of t's vertices to the plane
// through p with normal n (squared length nn), scaled by |n|. Distances
// within 1e-12 of the plane are snapped to zero for robustness.
func planeDists(n Vec3, nn float64, p Vec3, t Triangle) (d0, d1, d2 float64) {
	d0, d1, d2 = n.Dot(t.A.Sub(p)), n.Dot(t.B.Sub(p)), n.Dot(t.C.Sub(p))
	eps2 := 1e-24 * nn
	if d0*d0 < eps2 {
		d0 = 0
	}
	if d1*d1 < eps2 {
		d1 = 0
	}
	if d2*d2 < eps2 {
		d2 = 0
	}
	return d0, d1, d2
}

// intervalsOverlap is the second half of Möller's test, for two proper
// triangles neither of which lies strictly on one side of the other's
// plane: project both onto the line where the planes meet and compare the
// intervals they cover there. du and dv are planeDists of t1 against t2's
// plane and of t2 against t1's.
func intervalsOverlap(t1, t2 Triangle, n1, n2 Vec3, nn1, nn2, du0, du1, du2, dv0, dv1, dv2 float64) bool {
	// Direction of the intersection line of the two planes.
	dir := n1.Cross(n2)

	// |dir|² = nn1·nn2·sin² of the angle between the planes: the test is on
	// the angle alone, whatever the size of the triangles.
	if dir.Len2() <= Epsilon*nn1*nn2 {
		// Planes are (nearly) parallel. If all plane distances are zero the
		// triangles are coplanar; otherwise they cannot intersect.
		if du0 == 0 && du1 == 0 && du2 == 0 {
			return coplanarTriTri(n1, t1, t2)
		}
		return false
	}

	// Project onto the dominant axis of dir.
	axis := 0
	m := math.Abs(dir.X)
	if math.Abs(dir.Y) > m {
		axis, m = 1, math.Abs(dir.Y)
	}
	if math.Abs(dir.Z) > m {
		axis = 2
	}

	vp0 := t1.A.Component(axis)
	vp1 := t1.B.Component(axis)
	vp2 := t1.C.Component(axis)
	up0 := t2.A.Component(axis)
	up1 := t2.B.Component(axis)
	up2 := t2.C.Component(axis)

	isect1lo, isect1hi, ok1 := computeIntervals(vp0, vp1, vp2, du0, du1, du2, du0*du1, du0*du2)
	if !ok1 {
		return coplanarTriTri(n1, t1, t2)
	}
	isect2lo, isect2hi, ok2 := computeIntervals(up0, up1, up2, dv0, dv1, dv2, dv0*dv1, dv0*dv2)
	if !ok2 {
		return coplanarTriTri(n1, t1, t2)
	}

	if isect1lo > isect1hi {
		isect1lo, isect1hi = isect1hi, isect1lo
	}
	if isect2lo > isect2hi {
		isect2lo, isect2hi = isect2hi, isect2lo
	}
	return isect1hi >= isect2lo && isect2hi >= isect1lo
}

// computeIntervals returns the projection interval of a triangle on the
// plane-intersection line. ok is false when the triangle is coplanar with
// the other triangle's plane.
func computeIntervals(vv0, vv1, vv2, d0, d1, d2, d0d1, d0d2 float64) (lo, hi float64, ok bool) {
	switch {
	case d0d1 > 0:
		// d0, d1 same side, d2 on the other (or on the plane).
		return isectEnd(vv2, vv0, d2, d0), isectEnd(vv2, vv1, d2, d1), true
	case d0d2 > 0:
		return isectEnd(vv1, vv0, d1, d0), isectEnd(vv1, vv2, d1, d2), true
	case d1*d2 > 0 || d0 != 0:
		return isectEnd(vv0, vv1, d0, d1), isectEnd(vv0, vv2, d0, d2), true
	case d1 != 0:
		return isectEnd(vv1, vv0, d1, d0), isectEnd(vv1, vv2, d1, d2), true
	case d2 != 0:
		return isectEnd(vv2, vv0, d2, d0), isectEnd(vv2, vv1, d2, d1), true
	default:
		return 0, 0, false // coplanar
	}
}

// isectEnd computes one endpoint of the projection interval: the crossing
// parameter between the isolated vertex (v0, plane distance d0) and another
// vertex (v1, plane distance d1).
func isectEnd(v0, v1, d0, d1 float64) float64 {
	return v0 + (v1-v0)*d0/(d0-d1)
}

// segCrossesFace reports whether segment ab crosses the face of tri, whose
// normal is n (endpoints on opposite sides of the plane, crossing point
// inside the triangle). Degenerate triangles have no face to cross.
func segCrossesFace(a, b Vec3, tri Triangle, n Vec3) bool {
	if n.Len2() == 0 {
		return false
	}
	da := n.Dot(a.Sub(tri.A))
	db := n.Dot(b.Sub(tri.A))
	//lint:ignore floateq with da*db <= 0, da == db only when both are zero (coplanar segment) or underflow-equal; the exact test also guards the da/(da-db) division below
	if da*db > 0 || da == db {
		return false
	}
	p := a.Lerp(b, da/(da-db))
	// On the face to within 1e-12 of the triangle's size.
	return tri.ClosestPointToPoint(p).Dist2(p) <= 1e-24*(tri.A.Dist2(tri.B)+tri.A.Dist2(tri.C))
}

// coplanarTriTri handles the coplanar case: project both triangles onto the
// dominant plane of n and run 2D edge tests plus containment checks.
func coplanarTriTri(n Vec3, t1, t2 Triangle) bool {
	// Choose projection axes: drop the dominant normal component.
	var i0, i1 int
	ax, ay, az := math.Abs(n.X), math.Abs(n.Y), math.Abs(n.Z)
	switch {
	case ax >= ay && ax >= az:
		i0, i1 = 1, 2
	case ay >= az:
		i0, i1 = 0, 2
	default:
		i0, i1 = 0, 1
	}

	p := [3][2]float64{
		{t1.A.Component(i0), t1.A.Component(i1)},
		{t1.B.Component(i0), t1.B.Component(i1)},
		{t1.C.Component(i0), t1.C.Component(i1)},
	}
	q := [3][2]float64{
		{t2.A.Component(i0), t2.A.Component(i1)},
		{t2.B.Component(i0), t2.B.Component(i1)},
		{t2.C.Component(i0), t2.C.Component(i1)},
	}

	// Any pair of edges crossing?
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if segSeg2D(p[i], p[(i+1)%3], q[j], q[(j+1)%3]) {
				return true
			}
		}
	}
	// One triangle fully inside the other?
	return pointInTri2D(p[0], q) || pointInTri2D(q[0], p)
}

func segSeg2D(a, b, c, d [2]float64) bool {
	d1 := cross2D(c, d, a)
	d2 := cross2D(c, d, b)
	d3 := cross2D(a, b, c)
	d4 := cross2D(a, b, d)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	if d1 == 0 && onSeg2D(c, d, a) {
		return true
	}
	if d2 == 0 && onSeg2D(c, d, b) {
		return true
	}
	if d3 == 0 && onSeg2D(a, b, c) {
		return true
	}
	if d4 == 0 && onSeg2D(a, b, d) {
		return true
	}
	return false
}

func cross2D(a, b, p [2]float64) float64 {
	return (b[0]-a[0])*(p[1]-a[1]) - (b[1]-a[1])*(p[0]-a[0])
}

func onSeg2D(a, b, p [2]float64) bool {
	return math.Min(a[0], b[0]) <= p[0] && p[0] <= math.Max(a[0], b[0]) &&
		math.Min(a[1], b[1]) <= p[1] && p[1] <= math.Max(a[1], b[1])
}

func pointInTri2D(p [2]float64, t [3][2]float64) bool {
	d1 := cross2D(t[0], t[1], p)
	d2 := cross2D(t[1], t[2], p)
	d3 := cross2D(t[2], t[0], p)
	hasNeg := d1 < 0 || d2 < 0 || d3 < 0
	hasPos := d1 > 0 || d2 > 0 || d3 > 0
	return !(hasNeg && hasPos)
}

// TriTriDist returns the minimum distance between two triangles. It is zero
// when they intersect. The computation examines the 6 vertex-to-triangle and
// 9 edge-to-edge candidate pairs, matching the classical approach the paper
// inherits for its distance refinements.
func TriTriDist(t1, t2 Triangle) float64 {
	return math.Sqrt(TriTriDist2(t1, t2))
}

// TriTriDist2 returns the squared minimum distance between two triangles:
// the bounded primitive with nothing to give up against. Every caller that
// holds a bound goes through MinDist2Rect and the same primitive, so a
// distance reported anywhere is the value this function returns.
func TriTriDist2(t1, t2 Triangle) float64 {
	return triTriDist2Bounded(t1, t2, math.Inf(1))
}

// triTriDist2Bounded returns the squared minimum distance between t1 and t2
// if that is below best, and some value ≥ best otherwise. best only ever
// removes work — a stage is skipped when a lower bound of what it could
// find already meets best — and never enters the arithmetic of a stage
// that runs, so a result below best is the value the function returns for
// best = +Inf.
//
// Stages, each on what the previous ones computed (edge vectors, squared
// edge lengths and the two normals are computed once per pair):
//
//  1. Separation along the axis through the two centroids: the triangles
//     are at least as far apart as their projections onto any axis. Of the
//     pairs that pass the box gates of MinDist2Rect without being able to
//     improve the running best, this one axis turns away about three in
//     four, before a normal is computed.
//  2. Plane separation. With t1 strictly on one side of t2's plane the
//     triangles cannot intersect and are at least as far apart as t1's
//     nearest vertex is from that plane; likewise with the roles swapped.
//  3. Möller's interval test, where neither plane separates: intersecting
//     triangles are at distance zero. For proper triangles this decides
//     intersection; degenerate ones (no plane) instead get the six
//     edge-through-face crossing tests, which is what makes the result
//     exact for them: a needle can pierce the other triangle's interior
//     without any vertex or edge pair coming close.
//  4. The feature fold: the minimum over the 9 edge–edge pairs and the 6
//     vertex–face pairs whose vertex projects into the face (a vertex
//     nearest to the face's boundary is covered by its own edges; against
//     a degenerate triangle, which has no face to project into, the
//     vertices go through ClosestPointToPoint). A feature lying on one
//     side of the other triangle's plane is no nearer than that plane, and
//     is skipped when the plane is at or beyond the running minimum.
//
// Separations and plane distances serve as bounds only, and only where
// rounding cannot put them above the value they bound: shrunk by boundSlack,
// and counted as zero below the pair's noise floor (see boundNoise). Every
// value the fold reports is the squared length of a difference of two
// points, as the box gates of MinDist2Rect assume (a box gap never exceeds
// it).
func triTriDist2Bounded(t1, t2 Triangle, best float64) float64 {
	ab1, ac1 := t1.B.Sub(t1.A), t1.C.Sub(t1.A)
	ab2, ac2 := t2.B.Sub(t2.A), t2.C.Sub(t2.A)
	// c is three times the difference of the centroids; the projections
	// are taken from t1.A.
	r0 := t2.A.Sub(t1.A)
	c := r0.Mul(3).Add(ab2.Add(ac2)).Sub(ab1.Add(ac1))
	cc := c.Len2()
	lab1, lac1, lab2, lac2 := ab1.Len2(), ac1.Len2(), ab2.Len2(), ac2.Len2()
	// The squared extent of the pair, within a small factor: every vector
	// the bounds are computed from is a sum of a few of these.
	noise := boundNoise * (cc + lab1 + lac1 + lab2 + lac2)
	hi := max(0, ab1.Dot(c), ac1.Dot(c))
	lo := r0.Dot(c) + min(0, ab2.Dot(c), ac2.Dot(c))
	if gap := lo - hi; gap > 0 {
		if sep := gap * gap * boundSlack; sep >= best*cc && sep >= noise*cc {
			return best
		}
	}

	bc1, bc2 := t1.C.Sub(t1.B), t2.C.Sub(t2.B)
	n1, n2 := ab1.Cross(ac1), ab2.Cross(ac2)
	nn1, nn2 := n1.Len2(), n2.Len2()
	// Squared edge lengths, in the order of the edges below.
	l1 := [3]float64{lab1, bc1.Len2(), lac1}
	l2 := [3]float64{lab2, bc2.Len2(), lac2}
	proper1 := !degenerateArea(nn1, l1)
	proper2 := !degenerateArea(nn2, l2)

	// u: t1's vertices against t2's plane, v: t2's against t1's. Without a
	// plane the distances stay zero and bound nothing.
	var u, v planeSide
	if proper2 {
		u = sideOfPlane(n2, nn2, t2.A, t1, noise*lab2*lac2)
		if u.apart() >= best {
			return best
		}
	}
	if proper1 {
		v = sideOfPlane(n1, nn1, t1.A, t2, noise*lab1*lac1)
		if v.apart() >= best {
			return best
		}
	}
	if proper1 && proper2 {
		if !u.oneSide && !v.oneSide &&
			intervalsOverlap(t1, t2, n1, n2, nn1, nn2, u.d[0], u.d[1], u.d[2], v.d[0], v.d[1], v.d[2]) {
			return 0
		}
	} else {
		for i := 0; i < 3; i++ {
			if segCrossesFace(t1.Vertex(i), t1.Vertex((i+1)%3), t2, n2) ||
				segCrossesFace(t2.Vertex(i), t2.Vertex((i+1)%3), t1, n1) {
				return 0
			}
		}
	}

	// Vertices of each triangle against the face of the other.
	p1 := [3]Vec3{t1.A, t1.B, t1.C}
	p2 := [3]Vec3{t2.A, t2.B, t2.C}
	if proper2 {
		best = verticesOverFace(p1, &u, t2.A, ab2, ac2, l2[0], l2[2], best)
	} else {
		best = verticesToDegenerate(p1, t2, best)
	}
	if proper1 {
		best = verticesOverFace(p2, &v, t1.A, ab1, ac1, l1[0], l1[2], best)
	} else {
		best = verticesToDegenerate(p2, t1, best)
	}

	// Edge pairs. Edge k runs from vertex edgeFrom[k] along e[k] and ends
	// at vertex edgeTo[k]: AB, BC, AC.
	e1 := [3]Vec3{ab1, bc1, ac1}
	e2 := [3]Vec3{ab2, bc2, ac2}
	for i := 0; i < 3; i++ {
		if u.edge(i) >= best {
			continue
		}
		for j := 0; j < 3; j++ {
			if v.edge(j) >= best {
				continue
			}
			x, y := p1[edgeFrom[i]], p2[edgeFrom[j]]
			s, t := closestParams(e1[i], e2[j], x.Sub(y), l1[i], l2[j])
			// The difference of the two closest points, from the nearest
			// vertices: an end of an edge is that vertex itself, so a
			// vertex-to-vertex distance is one float through whichever
			// faces and edges the two vertices are reached.
			if s == 1 {
				x = p1[edgeTo[i]]
			}
			if t == 1 {
				y = p2[edgeTo[j]]
			}
			w := x.Sub(y)
			if 0 < s && s < 1 {
				w = w.Add(e1[i].Mul(s))
			}
			if 0 < t && t < 1 {
				w = w.Sub(e2[j].Mul(t))
			}
			if d := w.Len2(); d < best {
				best = d
			}
		}
	}
	return best
}

// edgeFrom and edgeTo index the end vertices of a triangle's edges in the
// order AB, BC, AC.
var (
	edgeFrom = [3]int{0, 1, 0}
	edgeTo   = [3]int{1, 2, 2}
)

// planeSide places a triangle's three vertices against a plane: d are their
// signed distances as planeDists scales them, q lower bounds of their
// squared distances, and oneSide says that the triangle lies strictly on
// one side of the plane.
type planeSide struct {
	d, q    [3]float64
	oneSide bool
}

// boundSlack and boundNoise make a squared separation or plane distance a
// lower bound that holds in floating point too. A feature beyond a plane is
// no nearer than the plane, but both numbers carry rounding errors of a few
// ulps of the pair's extent, and where the bound is tight (a vertex above a
// face, parallel faces, a shared vertex) the computed distance may fall
// below the computed bound. So a bound is shrunk by boundSlack, and counts
// only from boundNoise times the squared extent of the pair upwards — a
// distance of 3e-5 extents, where a few dozen ulps of the extent are less
// than the slack; below that it is zero and skips nothing. A plane's normal
// is a cross product, turned by rounding through an angle that grows as
// the sine of the angle between the two edges shrinks, so a plane's floor
// is divided by that sine squared: a sliver bounds nothing it cannot bound
// safely. With this, skipping on a bound cannot change a result, whatever
// the seed and whatever order pairs and features are visited in.
const (
	boundSlack = 1 - 1e-9
	boundNoise = 1e-9
)

// sideOfPlane places t against the plane through p with normal n, of
// squared length nn > 0. floorNN is the noise floor of the plane's bounds
// times nn: the pair's, times the squared lengths of the two edges n is the
// cross product of.
func sideOfPlane(n Vec3, nn float64, p Vec3, t Triangle, floorNN float64) (s planeSide) {
	s.d[0], s.d[1], s.d[2] = planeDists(n, nn, p, t)
	inv := 1 / nn
	k, floor := boundSlack*inv, floorNN*inv
	for i, d := range s.d {
		if q := d * d * k; q >= floor {
			s.q[i] = q
		}
	}
	s.oneSide = s.d[0]*s.d[1] > 0 && s.d[0]*s.d[2] > 0
	return s
}

// apart returns a lower bound of the squared distance of the whole triangle
// from the plane: zero unless it lies strictly on one side.
func (s *planeSide) apart() float64 {
	if !s.oneSide {
		return 0
	}
	return min(s.q[0], s.q[1], s.q[2])
}

// edge returns a lower bound of the squared distance of edge k (see
// edgeFrom) from the plane: zero when the edge meets the plane, its nearer
// end's otherwise.
func (s *planeSide) edge(k int) float64 {
	from, to := edgeFrom[k], edgeTo[k]
	if s.d[from]*s.d[to] <= 0 {
		return 0
	}
	return min(s.q[from], s.q[to])
}

// verticesOverFace folds into best the squared distances of the vertices p
// from the proper triangle (a, a+ab, a+ac), for those that project into
// it; side places p against the triangle's plane, lab and lac are |ab|² and
// |ac|². A vertex whose plane distance already meets best is skipped.
func verticesOverFace(p [3]Vec3, side *planeSide, a, ab, ac Vec3, lab, lac, best float64) float64 {
	abac := ab.Dot(ac)
	det := lab*lac - abac*abac
	for i, q := range side.q {
		if q >= best {
			continue
		}
		ap := p[i].Sub(a)
		d1, d2 := ab.Dot(ap), ac.Dot(ap)
		// Barycentric coordinates of the foot point, times det > 0.
		v := lac*d1 - abac*d2
		w := lab*d2 - abac*d1
		if v < 0 || w < 0 || v+w > det {
			continue // nearest to the boundary: the edges cover it
		}
		// Divided, not scaled by 1/det: a vertex shared with the face has
		// v or w equal to det or both zero, and must come out at exactly
		// zero — against a needle no other stage would say so.
		if d := ap.Sub(ab.Mul(v / det)).Sub(ac.Mul(w / det)).Len2(); d < best {
			best = d
		}
	}
	return best
}

// verticesToDegenerate folds into best the squared distances of the
// vertices p from the degenerate triangle t. Its edges cover them, but a
// vertex of p that is a vertex of t must come out at exactly zero, which
// the edge parameters do not promise and the region tests of
// ClosestPointToPoint do.
func verticesToDegenerate(p [3]Vec3, t Triangle, best float64) float64 {
	for _, v := range p {
		if d := t.ClosestPointToPoint(v).Dist2(v); d < best {
			best = d
		}
	}
	return best
}
