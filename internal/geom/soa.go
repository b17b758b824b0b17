package geom

import "math"

// TriSoA is a struct-of-arrays triangle set: nine vertex-coordinate lanes
// plus six per-triangle bounding-box lanes, all contiguous []float64. It is
// the packed representation the batch refinement executor ships to the
// batch kernels below and to the simulated GPU: iterating flat lanes keeps
// the tri-tri inner loops walking sequential memory instead of chasing
// []Triangle elements, and the box lanes let a kernel skip a face pair with
// six comparisons before touching any vertex math.
//
// A TriSoA is immutable after construction and safe for concurrent reads.
type TriSoA struct {
	AX, AY, AZ []float64
	BX, BY, BZ []float64
	CX, CY, CZ []float64

	// Per-triangle AABB lanes. MinX[i]..MaxZ[i] bound triangle i; the batch
	// kernels use them to prune pairs that provably cannot change the
	// result (disjoint boxes cannot intersect; a box distance at or above
	// the running best cannot improve it).
	MinX, MinY, MinZ []float64
	MaxX, MaxY, MaxZ []float64
}

// Len returns the number of triangles.
func (s *TriSoA) Len() int { return len(s.AX) }

// At materializes triangle i.
func (s *TriSoA) At(i int) Triangle {
	return Triangle{
		A: Vec3{s.AX[i], s.AY[i], s.AZ[i]},
		B: Vec3{s.BX[i], s.BY[i], s.BZ[i]},
		C: Vec3{s.CX[i], s.CY[i], s.CZ[i]},
	}
}

// Bytes returns the memory footprint of the lanes.
func (s *TriSoA) Bytes() int64 {
	if s == nil {
		return 0
	}
	return int64(15 * len(s.AX) * 8)
}

// NewTriSoA returns a set of n zeroed triangles for the caller to fill with
// Set before publishing it.
func NewTriSoA(n int) *TriSoA {
	// One backing array, sliced into the 15 lanes, keeps the whole packing
	// a single allocation and the lanes adjacent in memory.
	back := make([]float64, 15*n)
	lane := func(k int) []float64 { return back[k*n : (k+1)*n : (k+1)*n] }
	return &TriSoA{
		AX: lane(0), AY: lane(1), AZ: lane(2),
		BX: lane(3), BY: lane(4), BZ: lane(5),
		CX: lane(6), CY: lane(7), CZ: lane(8),
		MinX: lane(9), MinY: lane(10), MinZ: lane(11),
		MaxX: lane(12), MaxY: lane(13), MaxZ: lane(14),
	}
}

// Set stores triangle (a, b, c) and its bounding box at index i. It is the
// construction-time writer; a published TriSoA is never written again.
func (s *TriSoA) Set(i int, a, b, c Vec3) {
	s.AX[i], s.AY[i], s.AZ[i] = a.X, a.Y, a.Z
	s.BX[i], s.BY[i], s.BZ[i] = b.X, b.Y, b.Z
	s.CX[i], s.CY[i], s.CZ[i] = c.X, c.Y, c.Z
	s.MinX[i] = math.Min(a.X, math.Min(b.X, c.X))
	s.MinY[i] = math.Min(a.Y, math.Min(b.Y, c.Y))
	s.MinZ[i] = math.Min(a.Z, math.Min(b.Z, c.Z))
	s.MaxX[i] = math.Max(a.X, math.Max(b.X, c.X))
	s.MaxY[i] = math.Max(a.Y, math.Max(b.Y, c.Y))
	s.MaxZ[i] = math.Max(a.Z, math.Max(b.Z, c.Z))
}

// SoAFromTriangles packs ts into freshly allocated lanes.
func SoAFromTriangles(ts []Triangle) *TriSoA {
	s := NewTriSoA(len(ts))
	for i, t := range ts {
		s.Set(i, t.A, t.B, t.C)
	}
	return s
}

// lanes lists the 15 lanes in a fixed order, for the whole-set operations.
func (s *TriSoA) lanes() [15]*[]float64 {
	return [15]*[]float64{
		&s.AX, &s.AY, &s.AZ, &s.BX, &s.BY, &s.BZ, &s.CX, &s.CY, &s.CZ,
		&s.MinX, &s.MinY, &s.MinZ, &s.MaxX, &s.MaxY, &s.MaxZ,
	}
}

// Gather returns a new set whose triangle i is s's triangle order[i]. The
// accelerators use it to lay a mesh's lanes out in their own traversal
// order (AABB-tree leaves, partition groups become contiguous runs); the
// cross-product kernels are order-independent, so they run on a gathered
// set unchanged.
func (s *TriSoA) Gather(order []int32) *TriSoA {
	out := NewTriSoA(len(order))
	src, dst := s.lanes(), out.lanes()
	for k := range src {
		from, to := *src[k], *dst[k]
		for i, o := range order {
			to[i] = from[o]
		}
	}
	return out
}

// Slice returns the sub-range [lo, hi) as a set of its own that shares s's
// lanes (no triangle is copied).
func (s *TriSoA) Slice(lo, hi int) TriSoA {
	var out TriSoA
	src, dst := s.lanes(), out.lanes()
	for k := range src {
		*dst[k] = (*src[k])[lo:hi:hi]
	}
	return out
}

// Box returns the bounding box of triangle i.
func (s *TriSoA) Box(i int) Box3 {
	return Box3{
		Min: Vec3{s.MinX[i], s.MinY[i], s.MinZ[i]},
		Max: Vec3{s.MaxX[i], s.MaxY[i], s.MaxZ[i]},
	}
}

// Bounds returns the bounding box of the whole set (empty for no triangles).
func (s *TriSoA) Bounds() Box3 {
	b := EmptyBox()
	for i := 0; i < s.Len(); i++ {
		b = b.Union(s.Box(i))
	}
	return b
}

// boxesDisjoint reports whether the boxes of a[i] and b[j] are strictly
// disjoint. Touching boxes count as overlapping, matching Box3.Intersects,
// so a pair skipped here can never intersect.
func boxesDisjoint(a *TriSoA, i int, b *TriSoA, j int) bool {
	return a.MinX[i] > b.MaxX[j] || b.MinX[j] > a.MaxX[i] ||
		a.MinY[i] > b.MaxY[j] || b.MinY[j] > a.MaxY[i] ||
		a.MinZ[i] > b.MaxZ[j] || b.MinZ[j] > a.MaxZ[i]
}

// boxDist2 returns the squared distance between the boxes of a[i] and b[j],
// a lower bound on the distance between the triangles themselves.
func boxDist2(a *TriSoA, i int, b *TriSoA, j int) float64 {
	var d2 float64
	if d := b.MinX[j] - a.MaxX[i]; d > 0 {
		d2 += d * d
	} else if d := a.MinX[i] - b.MaxX[j]; d > 0 {
		d2 += d * d
	}
	if d := b.MinY[j] - a.MaxY[i]; d > 0 {
		d2 += d * d
	} else if d := a.MinY[i] - b.MaxY[j]; d > 0 {
		d2 += d * d
	}
	if d := b.MinZ[j] - a.MaxZ[i]; d > 0 {
		d2 += d * d
	} else if d := a.MinZ[i] - b.MaxZ[j]; d > 0 {
		d2 += d * d
	}
	return d2
}

// IntersectsBatch reports whether any triangle of a intersects any triangle
// of b. It is the batch variant of TriTriIntersect over the full cross
// product, with per-pair box gating, and returns exactly what the pairwise
// loop would: a pair whose boxes are disjoint cannot intersect, and every
// surviving pair runs the same TriTriIntersect primitive.
func IntersectsBatch(a, b *TriSoA) bool {
	return IntersectsBatchRange(a, b, 0, a.Len()*b.Len())
}

// IntersectsBatchRange scans pair indices [start, end) of the a×b cross
// product (row-major: index = i*b.Len() + j) and reports whether any pair
// intersects. The range form is the kernel the simulated GPU launches.
func IntersectsBatchRange(a, b *TriSoA, start, end int) bool {
	bn := b.Len()
	if bn == 0 {
		return false
	}
	for idx := start; idx < end; {
		i := idx / bn
		j0 := idx % bn
		j1 := min(j0+(end-idx), bn)
		if IntersectsRect(a, i, i+1, b, j0, j1) {
			return true
		}
		idx += j1 - j0
	}
	return false
}

// IntersectsRect reports whether any of a's triangles [i0, i1) intersects
// any of b's triangles [j0, j1), box-gated per pair. It is the inner loop
// of the batch kernels and the leaf×leaf step of the AABB-tree descent.
func IntersectsRect(a *TriSoA, i0, i1 int, b *TriSoA, j0, j1 int) bool {
	for i := i0; i < i1; i++ {
		ta := a.At(i)
		for j := j0; j < j1; j++ {
			if boxesDisjoint(a, i, b, j) {
				continue
			}
			if TriTriIntersect(ta, b.At(j)) {
				return true
			}
		}
	}
	return false
}

// MinDist2Batch returns the squared minimum distance over all a×b triangle
// pairs, seeded with upper2: when every pair's true squared distance is
// ≥ upper2 the seed is returned unchanged, so callers must treat any result
// ≥ upper2 as "no pair beat the bound" only. Pass math.Inf(1) for an exact
// minimum. The bound plus the per-pair box pruning skips the feature-pair
// math for every pair that provably cannot improve the running best; the
// pairs that do run use the same TriTriDist2 primitive as the pairwise
// loop, so any result < upper2 is exact.
func MinDist2Batch(a, b *TriSoA, upper2 float64) float64 {
	return MinDist2BatchRange(a, b, 0, a.Len()*b.Len(), upper2)
}

// MinDist2BatchRange is MinDist2Batch over pair indices [start, end) of the
// row-major a×b cross product, the kernel form the simulated GPU launches.
func MinDist2BatchRange(a, b *TriSoA, start, end int, best float64) float64 {
	bn := b.Len()
	if bn == 0 {
		return best
	}
	for idx := start; idx < end; {
		i := idx / bn
		j0 := idx % bn
		j1 := min(j0+(end-idx), bn)
		best = MinDist2Rect(a, i, i+1, b, j0, j1, best)
		idx += j1 - j0
	}
	return best
}

// MinDist2Rect folds the squared distances between a's triangles [i0, i1)
// and b's triangles [j0, j1) into best, skipping every pair whose boxes
// cannot beat it; see MinDist2Batch for the bound's contract.
func MinDist2Rect(a *TriSoA, i0, i1 int, b *TriSoA, j0, j1 int, best float64) float64 {
	for i := i0; i < i1; i++ {
		ta := a.At(i)
		for j := j0; j < j1; j++ {
			if boxDist2(a, i, b, j) >= best {
				continue
			}
			if d2 := TriTriDist2(ta, b.At(j)); d2 < best {
				best = d2
			}
		}
	}
	return best
}
