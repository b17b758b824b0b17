package geom

import "math"

// TriSoA is a struct-of-arrays triangle set: nine vertex-coordinate lanes,
// six per-triangle bounding-box lanes and six block-box lanes (one box per
// BlockSize consecutive triangles), all contiguous []float64. It is the
// packed representation the batch refinement executor ships to the batch
// kernels below and to the simulated GPU: iterating flat lanes keeps the
// tri-tri inner loops walking sequential memory instead of chasing
// []Triangle elements, and the two box levels let a kernel skip BlockSize
// face pairs with one box test, and a single pair with another, before
// touching any vertex math.
//
// A TriSoA is a plain value (slice headers only; Slice and the partition
// groups copy it) that is immutable after construction and safe for
// concurrent reads.
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

	// Block AABB lanes: BlkMinX[k]..BlkMaxZ[k] bound triangles
	// [k*BlockSize, (k+1)*BlockSize) of this set, so whatever a triangle's
	// box proves, its block's box proves for all of the block at once.
	BlkMinX, BlkMinY, BlkMinZ []float64
	BlkMaxX, BlkMaxY, BlkMaxZ []float64
}

// BlockSize is the number of consecutive triangles one block box covers:
// large enough that the far field of a cross product costs one box test per
// BlockSize faces and the lanes 3 B per face, small enough that a block of
// a mesh laid out in tree or group order is still a compact patch.
const (
	BlockSize  = 1 << blockShift
	blockShift = 4
)

// numBlocks returns how many block boxes cover n triangles.
func numBlocks(n int) int { return (n + BlockSize - 1) >> blockShift }

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

// Bytes returns the memory footprint of the lanes: 15 per-triangle lanes
// plus the block lanes.
func (s *TriSoA) Bytes() int64 {
	if s == nil {
		return 0
	}
	return int64(15*len(s.AX))*8 + s.BlockBytes()
}

// BlockBytes returns the footprint of the block lanes alone — what a Slice
// view holds beyond the lanes it shares with its parent.
func (s *TriSoA) BlockBytes() int64 { return int64(6*len(s.BlkMinX)) * 8 }

// NewTriSoA returns a set of n zeroed triangles for the caller to fill with
// Set before publishing it. The block boxes start empty and grow with every
// Set, so they bound exactly the triangles that were stored.
func NewTriSoA(n int) *TriSoA {
	// One backing array, sliced into the 21 lanes, keeps the whole packing
	// a single allocation and the lanes adjacent in memory.
	nb := numBlocks(n)
	back := make([]float64, 15*n+6*nb)
	lane := func(k int) []float64 { return back[k*n : (k+1)*n : (k+1)*n] }
	s := &TriSoA{
		AX: lane(0), AY: lane(1), AZ: lane(2),
		BX: lane(3), BY: lane(4), BZ: lane(5),
		CX: lane(6), CY: lane(7), CZ: lane(8),
		MinX: lane(9), MinY: lane(10), MinZ: lane(11),
		MaxX: lane(12), MaxY: lane(13), MaxZ: lane(14),
	}
	s.setBlockLanes(back[15*n:])
	return s
}

// setBlockLanes carves the six block lanes out of back (6 floats per block)
// and empties every block box.
func (s *TriSoA) setBlockLanes(back []float64) {
	nb := len(back) / 6
	lane := func(k int) []float64 { return back[k*nb : (k+1)*nb : (k+1)*nb] }
	s.BlkMinX, s.BlkMinY, s.BlkMinZ = lane(0), lane(1), lane(2)
	s.BlkMaxX, s.BlkMaxY, s.BlkMaxZ = lane(3), lane(4), lane(5)
	for k := 0; k < nb; k++ {
		s.BlkMinX[k], s.BlkMinY[k], s.BlkMinZ[k] = math.Inf(1), math.Inf(1), math.Inf(1)
		s.BlkMaxX[k], s.BlkMaxY[k], s.BlkMaxZ[k] = math.Inf(-1), math.Inf(-1), math.Inf(-1)
	}
}

// growBlock extends the block box of triangle i by that triangle's box,
// with plain compares: it runs once per triangle of every packing, and
// math.Min/Max pay for NaN and signed-zero handling a box has no use for.
func (s *TriSoA) growBlock(i int) {
	k := i >> blockShift
	if v := s.MinX[i]; v < s.BlkMinX[k] {
		s.BlkMinX[k] = v
	}
	if v := s.MinY[i]; v < s.BlkMinY[k] {
		s.BlkMinY[k] = v
	}
	if v := s.MinZ[i]; v < s.BlkMinZ[k] {
		s.BlkMinZ[k] = v
	}
	if v := s.MaxX[i]; v > s.BlkMaxX[k] {
		s.BlkMaxX[k] = v
	}
	if v := s.MaxY[i]; v > s.BlkMaxY[k] {
		s.BlkMaxY[k] = v
	}
	if v := s.MaxZ[i]; v > s.BlkMaxZ[k] {
		s.BlkMaxZ[k] = v
	}
}

// Set stores triangle (a, b, c) and its bounding box at index i and grows
// the block box over it. It is the construction-time writer; a published
// TriSoA is never written again.
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
	s.growBlock(i)
}

// SoAFromTriangles packs ts into freshly allocated lanes.
func SoAFromTriangles(ts []Triangle) *TriSoA {
	s := NewTriSoA(len(ts))
	for i, t := range ts {
		s.Set(i, t.A, t.B, t.C)
	}
	return s
}

// lanes lists the 15 per-triangle lanes in a fixed order, for the whole-set
// operations.
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
	for i := range order {
		out.growBlock(i)
	}
	return out
}

// Slice returns the sub-range [lo, hi) as a set of its own that shares s's
// per-triangle lanes (no triangle is copied). Blocks count from a set's
// first triangle, so the view gets block lanes of its own, whatever lo is.
func (s *TriSoA) Slice(lo, hi int) TriSoA {
	var out TriSoA
	src, dst := s.lanes(), out.lanes()
	for k := range src {
		*dst[k] = (*src[k])[lo:hi:hi]
	}
	out.setBlockLanes(make([]float64, 6*numBlocks(hi-lo)))
	for i := 0; i < hi-lo; i++ {
		out.growBlock(i)
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

// axisGap2 returns the squared gap between the intervals [amin, amax] and
// [bmin, bmax] along one axis, zero when they overlap or touch. Summed over
// the three axes it is the squared distance between two boxes — a lower
// bound on the distance between whatever the boxes contain.
func axisGap2(amin, amax, bmin, bmax float64) float64 {
	if d := bmin - amax; d > 0 {
		return d * d
	}
	if d := amin - bmax; d > 0 {
		return d * d
	}
	return 0
}

// axisDisjoint reports whether the intervals [amin, amax] and [bmin, bmax]
// are strictly disjoint. Touching intervals overlap, matching
// Box3.Intersects, so boxes disjoint along an axis hold nothing that
// intersects.
func axisDisjoint(amin, amax, bmin, bmax float64) bool {
	return amin > bmax || bmin > amax
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
// any of b's triangles [j0, j1). It is the inner loop of the batch kernels
// and the leaf×leaf step of the AABB-tree descent, gated on two levels like
// MinDist2Rect: a row skips a whole block of b whose box is disjoint from
// the row's box, then single triangles. A skipped pair can never intersect,
// and every surviving pair runs TriTriIntersect.
func IntersectsRect(a *TriSoA, i0, i1 int, b *TriSoA, j0, j1 int) bool {
	for i := i0; i < i1; i++ {
		minX, minY, minZ := a.MinX[i], a.MinY[i], a.MinZ[i]
		maxX, maxY, maxZ := a.MaxX[i], a.MaxY[i], a.MaxZ[i]
		var ta Triangle
		loaded := false
		for j := j0; j < j1; {
			k := j >> blockShift
			end := min((k+1)<<blockShift, j1)
			if axisDisjoint(minX, maxX, b.BlkMinX[k], b.BlkMaxX[k]) ||
				axisDisjoint(minY, maxY, b.BlkMinY[k], b.BlkMaxY[k]) ||
				axisDisjoint(minZ, maxZ, b.BlkMinZ[k], b.BlkMaxZ[k]) {
				j = end
				continue
			}
			for ; j < end; j++ {
				if axisDisjoint(minX, maxX, b.MinX[j], b.MaxX[j]) ||
					axisDisjoint(minY, maxY, b.MinY[j], b.MaxY[j]) ||
					axisDisjoint(minZ, maxZ, b.MinZ[j], b.MaxZ[j]) {
					continue
				}
				if !loaded {
					ta, loaded = a.At(i), true
				}
				if TriTriIntersect(ta, b.At(j)) {
					return true
				}
			}
		}
	}
	return false
}

// MinDist2Batch returns the squared minimum distance over all a×b triangle
// pairs, seeded with upper2: when every pair's true squared distance is
// ≥ upper2 the seed is returned unchanged, so callers must treat any result
// ≥ upper2 as "no pair beat the bound" only. Pass math.Inf(1) for an exact
// minimum. The bound is the kernel's running best from the first pair on:
// it gates blocks, then single pairs, and is handed to the bounded
// primitive, which gives up on a pair as soon as it provably cannot beat
// it. A pair that can is evaluated exactly as TriTriDist2 would, so any
// result < upper2 is exact and independent of the order of evaluation.
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
// and b's triangles [j0, j1) into best; see MinDist2Batch for the bound's
// contract. It is the one leaf kernel of every distance path (brute force,
// device kernels, partition groups, AABB-tree leaves), gated on two levels:
// row i's box is held in locals and tested against the box of each block
// of b the range touches — a block at or beyond best is skipped whole, a
// partly covered block by its full (looser, still sound) box — then against
// the block's single triangles, and row i itself is only materialized once
// a pair survives both.
func MinDist2Rect(a *TriSoA, i0, i1 int, b *TriSoA, j0, j1 int, best float64) float64 {
	for i := i0; i < i1; i++ {
		minX, minY, minZ := a.MinX[i], a.MinY[i], a.MinZ[i]
		maxX, maxY, maxZ := a.MaxX[i], a.MaxY[i], a.MaxZ[i]
		var ta Triangle
		loaded := false
		for j := j0; j < j1; {
			k := j >> blockShift
			end := min((k+1)<<blockShift, j1)
			if axisGap2(minX, maxX, b.BlkMinX[k], b.BlkMaxX[k])+
				axisGap2(minY, maxY, b.BlkMinY[k], b.BlkMaxY[k])+
				axisGap2(minZ, maxZ, b.BlkMinZ[k], b.BlkMaxZ[k]) >= best {
				j = end
				continue
			}
			for ; j < end; j++ {
				if axisGap2(minX, maxX, b.MinX[j], b.MaxX[j])+
					axisGap2(minY, maxY, b.MinY[j], b.MaxY[j])+
					axisGap2(minZ, maxZ, b.MinZ[j], b.MaxZ[j]) >= best {
					continue
				}
				if !loaded {
					ta, loaded = a.At(i), true
				}
				if d2 := triTriDist2Bounded(ta, b.At(j), best); d2 < best {
					best = d2
				}
			}
		}
	}
	return best
}
