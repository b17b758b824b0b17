// Package geom provides the 3D geometric primitives and predicates that the
// rest of 3DPro is built on: vectors, axis-aligned boxes, triangles,
// intersection tests, and distance computations.
//
// All coordinates are float64. The package is allocation-free on its hot
// paths (triangle-triangle tests and distances) so it can be called millions
// of times per query during the refinement step.
package geom

import (
	"fmt"
	"math"
)

// Epsilon is the default tolerance used by the predicates in this package.
// Coordinates produced by the data generators are O(1)..O(1e4), so a fixed
// absolute tolerance is adequate.
const Epsilon = 1e-12

// Vec3 is a point or direction in 3D space.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Mul returns v scaled by s.
func (v Vec3) Mul(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product v · w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Len2 returns the squared length of v.
func (v Vec3) Len2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Len() }

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec3) Dist2(w Vec3) float64 { return v.Sub(w).Len2() }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Mul(1 / l)
}

// Lerp linearly interpolates between v and w by t (t=0 → v, t=1 → w).
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return Vec3{
		v.X + (w.X-v.X)*t,
		v.Y + (w.Y-v.Y)*t,
		v.Z + (w.Z-v.Z)*t,
	}
}

// Min returns the component-wise minimum of v and w.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// Component returns the i-th component (0=X, 1=Y, 2=Z).
func (v Vec3) Component(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// ApproxEqual reports whether v and w agree within tol in every component.
func (v Vec3) ApproxEqual(w Vec3, tol float64) bool {
	return math.Abs(v.X-w.X) <= tol &&
		math.Abs(v.Y-w.Y) <= tol &&
		math.Abs(v.Z-w.Z) <= tol
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z)
}
