package geom

import (
	"fmt"
	"math"
)

// Box3 is an axis-aligned bounding box in 3D, the "MBB" of the paper.
// An empty box has Min > Max in every component.
type Box3 struct {
	Min, Max Vec3
}

// EmptyBox returns the canonical empty box: extending it with any point
// yields the box of just that point.
func EmptyBox() Box3 {
	return Box3{
		Min: Vec3{math.Inf(1), math.Inf(1), math.Inf(1)},
		Max: Vec3{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
	}
}

// BoxOf returns the smallest box containing all the given points.
func BoxOf(pts ...Vec3) Box3 {
	b := EmptyBox()
	for _, p := range pts {
		b = b.ExtendPoint(p)
	}
	return b
}

// IsEmpty reports whether the box contains no points.
func (b Box3) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// ExtendPoint returns the box grown to include p.
func (b Box3) ExtendPoint(p Vec3) Box3 {
	return Box3{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Union returns the smallest box containing both b and c.
func (b Box3) Union(c Box3) Box3 {
	if b.IsEmpty() {
		return c
	}
	if c.IsEmpty() {
		return b
	}
	return Box3{Min: b.Min.Min(c.Min), Max: b.Max.Max(c.Max)}
}

// Intersects reports whether b and c share at least one point
// (touching boxes count as intersecting).
func (b Box3) Intersects(c Box3) bool {
	if b.IsEmpty() || c.IsEmpty() {
		return false
	}
	return b.Min.X <= c.Max.X && c.Min.X <= b.Max.X &&
		b.Min.Y <= c.Max.Y && c.Min.Y <= b.Max.Y &&
		b.Min.Z <= c.Max.Z && c.Min.Z <= b.Max.Z
}

// Contains reports whether b fully contains c.
func (b Box3) Contains(c Box3) bool {
	if b.IsEmpty() || c.IsEmpty() {
		return false
	}
	return b.Min.X <= c.Min.X && c.Max.X <= b.Max.X &&
		b.Min.Y <= c.Min.Y && c.Max.Y <= b.Max.Y &&
		b.Min.Z <= c.Min.Z && c.Max.Z <= b.Max.Z
}

// ContainsPoint reports whether p lies inside or on the boundary of b.
func (b Box3) ContainsPoint(p Vec3) bool {
	return b.Min.X <= p.X && p.X <= b.Max.X &&
		b.Min.Y <= p.Y && p.Y <= b.Max.Y &&
		b.Min.Z <= p.Z && p.Z <= b.Max.Z
}

// Center returns the centroid of the box.
func (b Box3) Center() Vec3 {
	return Vec3{(b.Min.X + b.Max.X) / 2, (b.Min.Y + b.Max.Y) / 2, (b.Min.Z + b.Max.Z) / 2}
}

// Size returns the extent of the box along each axis.
func (b Box3) Size() Vec3 {
	if b.IsEmpty() {
		return Vec3{}
	}
	return b.Max.Sub(b.Min)
}

// Volume returns the volume of the box (zero for empty or degenerate boxes).
func (b Box3) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	s := b.Size()
	return s.X * s.Y * s.Z
}

// Diagonal returns the length of the box's main diagonal. This is the
// MAXDIST ingredient from the paper: the diagonal of the union of two MBBs
// bounds the distance between any points covered by them.
func (b Box3) Diagonal() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.Size().Len()
}

// Expand returns the box grown by d in every direction.
func (b Box3) Expand(d float64) Box3 {
	if b.IsEmpty() {
		return b
	}
	e := Vec3{d, d, d}
	return Box3{Min: b.Min.Sub(e), Max: b.Max.Add(e)}
}

// ClosestPoint returns the point in b closest to p (p itself if inside).
func (b Box3) ClosestPoint(p Vec3) Vec3 {
	return Vec3{
		clamp(p.X, b.Min.X, b.Max.X),
		clamp(p.Y, b.Min.Y, b.Max.Y),
		clamp(p.Z, b.Min.Z, b.Max.Z),
	}
}

// DistToPoint returns the minimum distance from p to the box (0 if inside).
func (b Box3) DistToPoint(p Vec3) float64 {
	return b.ClosestPoint(p).Dist(p)
}

// MinDist returns the minimum possible distance between any point of b and
// any point of c — the MINDIST of the paper's distance range r. It is zero
// when the boxes intersect.
func (b Box3) MinDist(c Box3) float64 {
	return math.Sqrt(b.MinDist2(c))
}

// MinDist2 returns the squared MINDIST between b and c.
func (b Box3) MinDist2(c Box3) float64 {
	return axisGap2(b.Min.X, b.Max.X, c.Min.X, c.Max.X) +
		axisGap2(b.Min.Y, b.Max.Y, c.Min.Y, c.Max.Y) +
		axisGap2(b.Min.Z, b.Max.Z, c.Min.Z, c.Max.Z)
}

// MaxDist returns the paper's MAXDIST estimate between two object MBBs: the
// length of the diagonal of the union of the two boxes. It is an upper bound
// of the distance between the two objects as long as each object touches its
// own MBB, which is always true for minimal bounding boxes.
func (b Box3) MaxDist(c Box3) float64 {
	return b.Union(c).Diagonal()
}

// Corner returns the i-th corner of the box (i in [0,8)). Bit k of i selects
// Min (0) or Max (1) along axis k.
func (b Box3) Corner(i int) Vec3 {
	p := b.Min
	if i&1 != 0 {
		p.X = b.Max.X
	}
	if i&2 != 0 {
		p.Y = b.Max.Y
	}
	if i&4 != 0 {
		p.Z = b.Max.Z
	}
	return p
}

// LongestAxis returns the axis index (0, 1 or 2) with the largest extent.
func (b Box3) LongestAxis() int {
	s := b.Size()
	if s.X >= s.Y && s.X >= s.Z {
		return 0
	}
	if s.Y >= s.Z {
		return 1
	}
	return 2
}

// String implements fmt.Stringer.
func (b Box3) String() string {
	return fmt.Sprintf("[%v .. %v]", b.Min, b.Max)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
