package geom

import "math"

// Triangle is an oriented triangle in 3D space. Vertices are listed
// counter-clockwise when seen from the outer side (right-hand rule), matching
// the paper's face orientation convention.
type Triangle struct {
	A, B, C Vec3
}

// Normal returns the (non-unit) normal of the triangle: (B-A) × (C-A).
// Its direction points to the outer side for CCW-oriented faces.
func (t Triangle) Normal() Vec3 {
	return t.B.Sub(t.A).Cross(t.C.Sub(t.A))
}

// UnitNormal returns the unit-length outward normal, or the zero vector for
// degenerate triangles.
func (t Triangle) UnitNormal() Vec3 { return t.Normal().Normalize() }

// Centroid returns the triangle's centroid.
func (t Triangle) Centroid() Vec3 {
	return Vec3{
		(t.A.X + t.B.X + t.C.X) / 3,
		(t.A.Y + t.B.Y + t.C.Y) / 3,
		(t.A.Z + t.B.Z + t.C.Z) / 3,
	}
}

// Bounds returns the triangle's axis-aligned bounding box.
func (t Triangle) Bounds() Box3 { return BoxOf(t.A, t.B, t.C) }

// Vertex returns the i-th vertex (0=A, 1=B, 2=C).
func (t Triangle) Vertex(i int) Vec3 {
	switch i {
	case 0:
		return t.A
	case 1:
		return t.B
	default:
		return t.C
	}
}

// IsDegenerate reports whether the triangle has (nearly) zero area.
func (t Triangle) IsDegenerate() bool {
	return t.degenerate(t.Normal().Len2())
}

// degenerate is IsDegenerate given the squared length nn of t.Normal().
func (t Triangle) degenerate(nn float64) bool {
	return degenerateArea(nn, [3]float64{t.A.Dist2(t.B), t.B.Dist2(t.C), t.C.Dist2(t.A)})
}

// degenerateArea compares the squared normal length nn (four times the
// squared area) against the squared longest edge, given the three squared
// edge lengths, scaled by a relative tolerance so the test is
// scale-invariant.
func degenerateArea(nn float64, edges2 [3]float64) bool {
	e := math.Max(edges2[0], math.Max(edges2[1], edges2[2]))
	return nn <= 1e-24*e*e
}

// ClosestPointToPoint returns the point on the triangle (including its
// boundary) closest to p. Implementation follows Ericson, "Real-Time
// Collision Detection", §5.1.5.
func (t Triangle) ClosestPointToPoint(p Vec3) Vec3 {
	ab := t.B.Sub(t.A)
	ac := t.C.Sub(t.A)
	ap := p.Sub(t.A)

	d1 := ab.Dot(ap)
	d2 := ac.Dot(ap)
	if d1 <= 0 && d2 <= 0 {
		return t.A // vertex region A
	}

	bp := p.Sub(t.B)
	d3 := ab.Dot(bp)
	d4 := ac.Dot(bp)
	if d3 >= 0 && d4 <= d3 {
		return t.B // vertex region B
	}

	vc := d1*d4 - d3*d2
	if vc <= 0 && d1 >= 0 && d3 <= 0 {
		v := d1 / (d1 - d3)
		return t.A.Add(ab.Mul(v)) // edge region AB
	}

	cp := p.Sub(t.C)
	d5 := ab.Dot(cp)
	d6 := ac.Dot(cp)
	if d6 >= 0 && d5 <= d6 {
		return t.C // vertex region C
	}

	vb := d5*d2 - d1*d6
	if vb <= 0 && d2 >= 0 && d6 <= 0 {
		w := d2 / (d2 - d6)
		return t.A.Add(ac.Mul(w)) // edge region AC
	}

	va := d3*d6 - d5*d4
	if va <= 0 && (d4-d3) >= 0 && (d5-d6) >= 0 {
		w := (d4 - d3) / ((d4 - d3) + (d5 - d6))
		return t.B.Add(t.C.Sub(t.B).Mul(w)) // edge region BC
	}

	// Inside face region.
	denom := 1 / (va + vb + vc)
	v := vb * denom
	w := vc * denom
	return t.A.Add(ab.Mul(v)).Add(ac.Mul(w))
}

// DistToPoint returns the distance from p to the triangle.
func (t Triangle) DistToPoint(p Vec3) float64 {
	return t.ClosestPointToPoint(p).Dist(p)
}

// Segment is a line segment between two points.
type Segment struct {
	P, Q Vec3
}

// ClosestPoints returns the closest pair of points (one on each segment) and
// the squared distance between them.
func (s Segment) ClosestPoints(o Segment) (onS, onO Vec3, dist2 float64) {
	d1 := s.Q.Sub(s.P) // direction of s
	d2 := o.Q.Sub(o.P) // direction of o
	t, u := closestParams(d1, d2, s.P.Sub(o.P), d1.Len2(), d2.Len2())
	onS = s.P.Add(d1.Mul(t))
	onO = o.P.Add(d2.Mul(u))
	return onS, onO, onS.Dist2(onO)
}

// pointLen2 is the squared length below which a segment counts as a point:
// shorter ones would underflow the products below. The tests are otherwise
// relative, so the answer does not depend on the unit of the coordinates.
const pointLen2 = 1e-150

// closestParams returns the parameters t, u ∈ [0, 1] of the closest points
// P+t·d1 and O+u·d2 of two segments, given r = P−O and the squared lengths
// a = |d1|², e = |d2|². Implementation follows Ericson §5.1.9.
func closestParams(d1, d2, r Vec3, a, e float64) (t, u float64) {
	f := d2.Dot(r)
	switch {
	case a <= pointLen2 && e <= pointLen2:
		// Both segments degenerate to points.
		return 0, 0
	case a <= pointLen2:
		return 0, clamp(f/e, 0, 1)
	}
	c := d1.Dot(r)
	if e <= pointLen2 {
		return clamp(-c/a, 0, 1), 0
	}
	b := d1.Dot(d2)
	// denom is a·e·sin² of the angle between the segments.
	denom := a*e - b*b
	if denom > Epsilon*a*e {
		t = clamp((b*f-c*e)/denom, 0, 1)
	} else {
		t = 0 // parallel: pick arbitrary t, recompute u
	}
	u = (b*t + f) / e
	if u < 0 {
		u = 0
		t = clamp(-c/a, 0, 1)
	} else if u > 1 {
		u = 1
		t = clamp((b-c)/a, 0, 1)
	}
	return t, u
}

// Dist returns the minimum distance between the two segments.
func (s Segment) Dist(o Segment) float64 {
	_, _, d2 := s.ClosestPoints(o)
	return math.Sqrt(d2)
}
