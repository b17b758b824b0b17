package ppvp

import (
	"math"

	"repro/internal/geom"
)

// triScratch is the working memory of the hole triangulators: the encoder
// keeps one per Compress, the decoder one per Decoder.
type triScratch struct {
	xy   [][2]float64
	idx  []uint16
	tris [][3]uint16
}

// grown returns s resized to n elements, reallocated only when its
// capacity is short, and then to at least twice the old capacity and at
// least 16, so scratch reused across many small rings (a vertex has about
// six neighbours) settles after one or two reallocations; the contents are
// unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s), 16))
	}
	return s[:n]
}

// triangulateRing triangulates the hole left by removing a vertex whose
// ordered CCW one-ring is given by pts. The result is a list of triangles as
// ring-local index triples, wound CCW in the projection plane so that their
// outward orientation is consistent with the surrounding mesh.
//
// The polygon is projected onto its best-fit plane and ear-clipped. ok is
// false when the projected polygon is degenerate or self-intersecting in a
// way that leaves no clippable ear. The triangles live in s and are valid
// until its next use.
func triangulateRing(pts []geom.Vec3, s *triScratch) (tris [][3]uint16, ok bool) {
	n := len(pts)
	if n < 3 || n > 65535 {
		return nil, false
	}
	s.tris = grown(s.tris, n-2)[:0]
	if n == 3 {
		return append(s.tris, [3]uint16{0, 1, 2}), true
	}

	// Newell's method for the polygon normal: robust for non-planar rings.
	var normal geom.Vec3
	for i := 0; i < n; i++ {
		p := pts[i]
		q := pts[(i+1)%n]
		normal.X += (p.Y - q.Y) * (p.Z + q.Z)
		normal.Y += (p.Z - q.Z) * (p.X + q.X)
		normal.Z += (p.X - q.X) * (p.Y + q.Y)
	}
	if normal.Len2() < 1e-30 {
		return nil, false
	}
	normal = normal.Normalize()

	// Build a 2D basis in the projection plane.
	u := perpTo(normal)
	v := normal.Cross(u)
	s.xy = grown(s.xy, n)
	xy := s.xy
	for i, p := range pts {
		xy[i] = [2]float64{p.Dot(u), p.Dot(v)}
	}

	// Ear clipping over the index list.
	s.idx = grown(s.idx, n)
	idx := s.idx
	for i := range idx {
		idx[i] = uint16(i)
	}
	tris = s.tris
	guard := 0
	for len(idx) > 3 {
		clipped := false
		for i := 0; i < len(idx); i++ {
			prev := idx[(i+len(idx)-1)%len(idx)]
			cur := idx[i]
			next := idx[(i+1)%len(idx)]
			if !isEar(xy, idx, prev, cur, next) {
				continue
			}
			tris = append(tris, [3]uint16{prev, cur, next})
			idx = append(idx[:i], idx[i+1:]...)
			clipped = true
			break
		}
		if !clipped {
			guard++
			if guard > 1 {
				return nil, false // no ear: degenerate/self-intersecting ring
			}
			// Relax: clip the corner with the largest cross product even if
			// a point lies on its boundary (colinear configurations).
			best, bestCross := -1, 0.0
			for i := 0; i < len(idx); i++ {
				prev := idx[(i+len(idx)-1)%len(idx)]
				cur := idx[i]
				next := idx[(i+1)%len(idx)]
				c := cross2(xy[prev], xy[cur], xy[next])
				if c > bestCross {
					best, bestCross = i, c
				}
			}
			if best < 0 {
				return nil, false
			}
			prev := idx[(best+len(idx)-1)%len(idx)]
			cur := idx[best]
			next := idx[(best+1)%len(idx)]
			tris = append(tris, [3]uint16{prev, cur, next})
			idx = append(idx[:best], idx[best+1:]...)
		}
	}
	tris = append(tris, [3]uint16{idx[0], idx[1], idx[2]})
	return tris, true
}

// isEar reports whether corner (prev, cur, next) is a clippable ear: convex
// and containing no other remaining polygon vertex.
func isEar(xy [][2]float64, idx []uint16, prev, cur, next uint16) bool {
	a, b, c := xy[prev], xy[cur], xy[next]
	if cross2(a, b, c) <= 1e-18 {
		return false // reflex or degenerate corner
	}
	for _, j := range idx {
		if j == prev || j == cur || j == next {
			continue
		}
		if pointInTri2(xy[j], a, b, c) {
			return false
		}
	}
	return true
}

func cross2(a, b, c [2]float64) float64 {
	return (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0])
}

func pointInTri2(p, a, b, c [2]float64) bool {
	d1 := cross2(a, b, p)
	d2 := cross2(b, c, p)
	d3 := cross2(c, a, p)
	return d1 >= 0 && d2 >= 0 && d3 >= 0
}

// fanTriangulation triangulates the ring polygon as a fan rooted at ring
// vertex `apex`, preserving the CCW orientation of the ring, into tris[:0].
func fanTriangulation(n, apex int, tris [][3]uint16) [][3]uint16 {
	if n < 3 || apex < 0 || apex >= n {
		return nil
	}
	tris = grown(tris, n-2)[:0]
	for i := 1; i+1 < n; i++ {
		tris = append(tris, [3]uint16{
			uint16(apex),
			uint16((apex + i) % n),
			uint16((apex + i + 1) % n),
		})
	}
	return tris
}

// patchForStrategy materializes the patch selected by an op's strategy
// byte into s: 0 re-runs ear clipping, k ≥ 1 builds the fan rooted at k-1.
func patchForStrategy(pts []geom.Vec3, strat uint16, s *triScratch) ([][3]uint16, bool) {
	if strat == 0 {
		return triangulateRing(pts, s)
	}
	apex := int(strat) - 1
	if apex >= len(pts) {
		return nil, false
	}
	s.tris = fanTriangulation(len(pts), apex, s.tris)
	return s.tris, true
}

// perpTo returns an arbitrary unit vector perpendicular to n.
func perpTo(n geom.Vec3) geom.Vec3 {
	ref := geom.V(0, 0, 1)
	if math.Abs(n.Z) > 0.9 {
		ref = geom.V(1, 0, 0)
	}
	return n.Cross(ref).Normalize()
}
