package geom

import "math"

// TriSoA is a struct-of-arrays triangle set: nine vertex-coordinate lanes,
// six per-triangle bounding-box lanes and six block-box lanes (one box per
// BlockSize consecutive triangles), all contiguous []float64. It is the
// packed representation the refinement hands to the batch kernels below
// and to the simulated GPU: iterating flat lanes keeps the
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

// GrowInterval extends the interval [lo, hi] over [vlo, vhi]. It is how the
// boxes of the lanes and of the AABB tree grow, with plain compares: they
// run once per triangle of every packing and every tree level, and
// math.Min/Max pay for NaN and signed-zero handling a box has no use for.
// Of +0 and −0 it keeps the first where math.Min/Max would pick by sign, a
// difference no box test can see: they compare or subtract, and ±0 compare
// equal.
func GrowInterval(lo, hi, vlo, vhi float64) (float64, float64) {
	if vlo < lo {
		lo = vlo
	}
	if vhi > hi {
		hi = vhi
	}
	return lo, hi
}

// growBlock extends the block box of triangle i by that triangle's box.
func (s *TriSoA) growBlock(i int) {
	k := i >> blockShift
	s.BlkMinX[k], s.BlkMaxX[k] = GrowInterval(s.BlkMinX[k], s.BlkMaxX[k], s.MinX[i], s.MaxX[i])
	s.BlkMinY[k], s.BlkMaxY[k] = GrowInterval(s.BlkMinY[k], s.BlkMaxY[k], s.MinY[i], s.MaxY[i])
	s.BlkMinZ[k], s.BlkMaxZ[k] = GrowInterval(s.BlkMinZ[k], s.BlkMaxZ[k], s.MinZ[i], s.MaxZ[i])
}

// Set stores triangle (a, b, c) and its bounding box at index i and grows
// the block box over it. It is the construction-time writer; a published
// TriSoA is never written again.
func (s *TriSoA) Set(i int, a, b, c Vec3) {
	s.AX[i], s.AY[i], s.AZ[i] = a.X, a.Y, a.Z
	s.BX[i], s.BY[i], s.BZ[i] = b.X, b.Y, b.Z
	s.CX[i], s.CY[i], s.CZ[i] = c.X, c.Y, c.Z
	s.MinX[i], s.MaxX[i] = MinMax3(a.X, b.X, c.X)
	s.MinY[i], s.MaxY[i] = MinMax3(a.Y, b.Y, c.Y)
	s.MinZ[i], s.MaxZ[i] = MinMax3(a.Z, b.Z, c.Z)
	s.growBlock(i)
}

// MinMax3 returns the least and the greatest of three coordinates: the
// extent of a triangle's box along one axis, exactly as Set stores it.
func MinMax3(a, b, c float64) (float64, float64) {
	lo, hi := GrowInterval(a, a, b, b)
	return GrowInterval(lo, hi, c, c)
}

// PackFaces stores the indexed faces into s's lanes with Set, lane i
// receiving faces[order[i]], or faces[i] when order is nil. It is the one
// packing of an indexed mesh: in face order (the mesh's SoA memo), in group
// order (a partition) and in tree order (an AABB tree).
func PackFaces[F ~[3]int32](s *TriSoA, verts []Vec3, faces []F, order []int32) {
	for i := 0; i < s.Len(); i++ {
		fi := i
		if order != nil {
			fi = int(order[i])
		}
		f := faces[fi]
		s.Set(i, verts[f[0]], verts[f[1]], verts[f[2]])
	}
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
// product, with block-pair, block and per-pair box gating, and returns
// exactly what the pairwise loop would: a pair whose boxes are disjoint
// cannot intersect, and every surviving pair runs TriTriIntersect.
func IntersectsBatch(a, b *TriSoA) bool {
	return IntersectsBatchRange(a, b, 0, a.Len()*b.Len())
}

// IntersectsBatchRange scans pair indices [start, end) of the a×b cross
// product (row-major: index = i*b.Len() + j) and reports whether any pair
// intersects. The range form is the kernel the simulated GPU launches; it
// splits the range like MinDist2BatchRange.
func IntersectsBatchRange(a, b *TriSoA, start, end int) bool {
	bn := b.Len()
	if bn == 0 || start >= end {
		return false
	}
	r0, j0, r1, j1 := start/bn, start%bn, end/bn, end%bn
	if r0 == r1 {
		return IntersectsRect(a, r0, r0+1, b, j0, j1)
	}
	if j0 > 0 {
		if IntersectsRect(a, r0, r0+1, b, j0, bn) {
			return true
		}
		r0++
	}
	return intersectsBlocks(a, r0, r1, b) || j1 > 0 && IntersectsRect(a, r1, r1+1, b, 0, j1)
}

// intersectsBlocks reports whether any of a's rows [i0, i1) intersects any
// triangle of b, gated block against block like minDist2Blocks: a pair of
// blocks whose boxes are disjoint holds no intersecting pair.
func intersectsBlocks(a *TriSoA, i0, i1 int, b *TriSoA) bool {
	bn := b.Len()
	for i := i0; i < i1; {
		ka := i >> blockShift
		iend := min((ka+1)<<blockShift, i1)
		minX, minY, minZ := a.BlkMinX[ka], a.BlkMinY[ka], a.BlkMinZ[ka]
		maxX, maxY, maxZ := a.BlkMaxX[ka], a.BlkMaxY[ka], a.BlkMaxZ[ka]
		for kb, j := 0, 0; j < bn; kb, j = kb+1, j+BlockSize {
			if axisDisjoint(minX, maxX, b.BlkMinX[kb], b.BlkMaxX[kb]) ||
				axisDisjoint(minY, maxY, b.BlkMinY[kb], b.BlkMaxY[kb]) ||
				axisDisjoint(minZ, maxZ, b.BlkMinZ[kb], b.BlkMaxZ[kb]) {
				continue
			}
			if IntersectsRect(a, i, iend, b, j, min(j+BlockSize, bn)) {
				return true
			}
		}
		i = iend
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
// it gates block pairs, blocks, then single pairs, and is handed to the
// bounded primitive, which gives up on a pair as soon as it provably
// cannot beat it. A pair that can is evaluated exactly as TriTriDist2
// would, so any result < upper2 is exact and independent of the order of
// evaluation.
func MinDist2Batch(a, b *TriSoA, upper2 float64) float64 {
	return MinDist2BatchRange(a, b, 0, a.Len()*b.Len(), upper2, 0)
}

// MinDist2BatchRange is MinDist2Batch over pair indices [start, end) of the
// row-major a×b cross product, the kernel form the simulated GPU launches,
// with a stop bound below the seed (or 0): it may return as soon as its
// best is ≤ stop2. Such a result is the distance of some pair, not
// necessarily the least; a caller that only asks "is the minimum ≤ stop2"
// gets the same answer as from the exact fold, and one that needs the value
// passes 0 — distances are ≥ 0, so a zero stop ends only a search whose
// minimum is 0 already. A result above stop2 is exact.
//
// The full rows of the range go block against block (see minDist2Blocks);
// a partial first and last row go through MinDist2Rect.
func MinDist2BatchRange(a, b *TriSoA, start, end int, best, stop2 float64) float64 {
	bn := b.Len()
	if bn == 0 || start >= end {
		return best
	}
	r0, j0, r1, j1 := start/bn, start%bn, end/bn, end%bn
	if r0 == r1 {
		return MinDist2Rect(a, r0, r0+1, b, j0, j1, best, stop2)
	}
	if j0 > 0 {
		best = MinDist2Rect(a, r0, r0+1, b, j0, bn, best, stop2)
		r0++
	}
	best = minDist2Blocks(a, r0, r1, b, best, stop2)
	if j1 > 0 {
		best = MinDist2Rect(a, r1, r1+1, b, 0, j1, best, stop2)
	}
	return best
}

// minDist2Blocks folds a's rows [i0, i1) × all of b into best, gated block
// against block: the box of each block of a's rows is tested against each
// block box of b, so a block pair at or beyond best costs one box test for
// up to BlockSize² face pairs, and a pair of blocks that survives goes
// through MinDist2Rect and its row and triangle gates. A partly covered
// block of a is tested by its full box, which is looser and still sound.
func minDist2Blocks(a *TriSoA, i0, i1 int, b *TriSoA, best, stop2 float64) float64 {
	bn := b.Len()
	for i := i0; i < i1; {
		ka := i >> blockShift
		iend := min((ka+1)<<blockShift, i1)
		minX, minY, minZ := a.BlkMinX[ka], a.BlkMinY[ka], a.BlkMinZ[ka]
		maxX, maxY, maxZ := a.BlkMaxX[ka], a.BlkMaxY[ka], a.BlkMaxZ[ka]
		for kb, j := 0, 0; j < bn; kb, j = kb+1, j+BlockSize {
			if best <= stop2 {
				return best
			}
			if axisGap2(minX, maxX, b.BlkMinX[kb], b.BlkMaxX[kb])+
				axisGap2(minY, maxY, b.BlkMinY[kb], b.BlkMaxY[kb])+
				axisGap2(minZ, maxZ, b.BlkMinZ[kb], b.BlkMaxZ[kb]) >= best {
				continue
			}
			best = MinDist2Rect(a, i, iend, b, j, min(j+BlockSize, bn), best, stop2)
		}
		i = iend
	}
	return best
}

// MinDist2Rect folds the squared distances between a's triangles [i0, i1)
// and b's triangles [j0, j1) into best; see MinDist2Batch for the bound's
// contract and MinDist2BatchRange for stop2's. It is the one leaf kernel
// of every distance path (brute force, device kernels, partition groups,
// AABB-tree leaves), gated on two levels: row i's box is held in locals and
// tested against the box of each block of b the range touches — a block at
// or beyond best is skipped whole, a partly covered block by its full
// (looser, still sound) box — then against the block's single triangles,
// and row i itself is only materialized once a pair survives both.
func MinDist2Rect(a *TriSoA, i0, i1 int, b *TriSoA, j0, j1 int, best, stop2 float64) float64 {
	if best <= stop2 {
		return best
	}
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
					if best = d2; best <= stop2 {
						return best
					}
				}
			}
		}
	}
	return best
}
