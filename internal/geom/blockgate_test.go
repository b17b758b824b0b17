package geom_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/aabbtree"
)

// randomSurface returns n small triangles scattered over a patch around
// center, like the faces of one object: near ones and far ones for any row.
func randomSurface(rng *rand.Rand, n int, center geom.Vec3) []geom.Triangle {
	ts := make([]geom.Triangle, n)
	for i := range ts {
		base := center.Add(geom.V(rng.Float64()*12, rng.Float64()*12, rng.Float64()*2))
		p := func() geom.Vec3 {
			return base.Add(geom.V(rng.Float64(), rng.Float64(), rng.Float64()))
		}
		ts[i] = geom.Triangle{A: p(), B: p(), C: p()}
		if rng.Intn(16) == 0 {
			ts[i].C = ts[i].A // a degenerate face now and then
		}
	}
	return ts
}

// layouts builds the same n triangles as lane sets that came to be in
// different ways, each with block lanes of its own making: packed by Set,
// gathered through a permutation, sliced out of a larger set at an
// unaligned offset, and laid out in tree order by the AABB-tree build.
func layouts(rng *rand.Rand, n int, center geom.Vec3) map[string]*geom.TriSoA {
	ts := randomSurface(rng, n, center)
	out := map[string]*geom.TriSoA{"packed": geom.SoAFromTriangles(ts)}

	perm := rng.Perm(n)
	order := make([]int32, n)
	for i, p := range perm {
		order[i] = int32(p)
	}
	out["gathered"] = out["packed"].Gather(order)

	const lo = 5
	padded := append(randomSurface(rng, lo, geom.V(-50, 0, 0)), ts...)
	padded = append(padded, randomSurface(rng, 3, geom.V(90, 0, 0))...)
	sliced := geom.SoAFromTriangles(padded).Slice(lo, lo+n)
	out["sliced"] = &sliced

	out["tree-ordered"] = aabbtree.BuildSoA(out["packed"]).SoA()
	return out
}

// pairwise is the reference the gated kernels must equal: every pair of
// a[i0:i1] × b[j0:j1] through the unbounded primitives, nothing skipped.
func pairwise(a *geom.TriSoA, i0, i1 int, b *geom.TriSoA, j0, j1 int, best float64) (hit bool, d2 float64) {
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			hit = hit || geom.TriTriIntersect(a.At(i), b.At(j))
			if d := geom.TriTriDist2(a.At(i), b.At(j)); d < best {
				best = d
			}
		}
	}
	return hit, best
}

// TestBlockBoxesCoverTheirTriangles checks the invariant the block gate
// rests on, however a set was built, and what Bytes charges for it.
func TestBlockBoxesCoverTheirTriangles(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 15, 16, 17, 320} {
		for name, s := range layouts(rng, n, geom.Vec3{}) {
			blocks := (n + geom.BlockSize - 1) / geom.BlockSize
			if len(s.BlkMinX) != blocks || len(s.BlkMaxZ) != blocks {
				t.Fatalf("%s n=%d: %d block boxes, want %d", name, n, len(s.BlkMinX), blocks)
			}
			if got, want := s.Bytes(), int64(15*n+6*blocks)*8; got != want {
				t.Errorf("%s n=%d: Bytes = %d, want %d (15 lanes + 6 block lanes)", name, n, got, want)
			}
			for i := 0; i < n; i++ {
				k := i / geom.BlockSize
				blk := geom.Box3{
					Min: geom.V(s.BlkMinX[k], s.BlkMinY[k], s.BlkMinZ[k]),
					Max: geom.V(s.BlkMaxX[k], s.BlkMaxY[k], s.BlkMaxZ[k]),
				}
				if !blk.Contains(s.Box(i)) {
					t.Fatalf("%s n=%d: block %d box %v does not cover triangle %d box %v", name, n, k, blk, i, s.Box(i))
				}
			}
		}
	}
}

// TestBlockGateMatchesPairwise holds MinDist2Rect and IntersectsRect to the
// ungated pairwise fold: set sizes around the block size, column ranges
// that start and end inside, on and across block boundaries, every layout,
// near and far placements, and bounds above, at and below the answer.
func TestBlockGateMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	edges := []int{0, 1, 15, 16, 17, 31, 32, 33, 300, 320}
	for _, n := range []int{0, 1, 15, 16, 17, 320} {
		for _, gap := range []float64{0, 1.5, 30} {
			rows := geom.SoAFromTriangles(randomSurface(rng, 6, geom.V(0, 0, gap)))
			for name, b := range layouts(rng, n, geom.Vec3{}) {
				for _, j0 := range edges {
					for _, j1 := range edges {
						if j0 > j1 || j1 > n {
							continue
						}
						where := fmt.Sprintf("%s n=%d gap=%v [%d,%d)", name, n, gap, j0, j1)
						// Both ways round: the gate runs over b's blocks, then
						// over the rows' (the primitive is not symmetric to the
						// last bit, so each order has its own reference).
						check := func(x *geom.TriSoA, x0, x1 int, y *geom.TriSoA, y0, y1 int) {
							t.Helper()
							wantHit, want := pairwise(x, x0, x1, y, y0, y1, math.Inf(1))
							if got := geom.IntersectsRect(x, x0, x1, y, y0, y1); got != wantHit {
								t.Fatalf("%s: IntersectsRect = %v, pairwise %v", where, got, wantHit)
							}
							for _, seed := range []float64{math.Inf(1), want * 1.0001, want, want / 2, 0} {
								expect := math.Min(seed, want) // the seed comes back when nothing beats it
								if got := geom.MinDist2Rect(x, x0, x1, y, y0, y1, seed, 0); got != expect {
									t.Fatalf("%s seed %v: MinDist2Rect = %v, pairwise %v", where, seed, got, expect)
								}
							}
						}
						check(rows, 0, rows.Len(), b, j0, j1)
						check(b, j0, j1, rows, 0, rows.Len())
					}
				}
			}
		}
	}
}

// pairTable is every pair of the row-major a×b cross product through the
// unbounded primitives, nothing skipped: the reference the range kernels
// must equal over any range of it.
type pairTable struct {
	hit []bool
	d2  []float64
}

func newPairTable(a, b *geom.TriSoA) pairTable {
	var p pairTable
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			h, d := pairwise(a, i, i+1, b, j, j+1, math.Inf(1))
			p.hit, p.d2 = append(p.hit, h), append(p.d2, d)
		}
	}
	return p
}

// fold is the pairwise answer over pair indices [start, end), seeded.
func (p pairTable) fold(start, end int, best float64) (hit bool, d2 float64) {
	for idx := start; idx < end; idx++ {
		hit, best = hit || p.hit[idx], math.Min(best, p.d2[idx])
	}
	return hit, best
}

// rangeCuts returns pair indices of an an×bn cross product at which the
// range kernels' tests start and end ranges: the first pair, mid-row in the
// first block of rows, on row and block boundaries, mid-row inside and just
// past a later block, and the last pairs.
func rangeCuts(an, bn int) []int {
	total := an * bn
	at := func(i, j int) int { return min(max(i*bn+j, 0), total) }
	cuts := []int{0, at(0, 1), at(1, 5), at(3, 0), at(5, bn-1), at(16, 0), at(16, 7), at(17, 3), at(an-1, bn/3), total}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// TestBatchKernelsMatchPairwiseOnEveryLayout runs the whole-product and
// range kernels — what brute force, the device and the partition groups
// call — over layout × layout and over A and B lengths on both sides of the
// block size: ranges that start and end mid-row and mid-block, full rows
// that are whole and partial blocks, and a distance fold split at every
// kind of boundary, the first part's result seeding the second.
func TestBatchKernelsMatchPairwiseOnEveryLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, an := range []int{1, 15, 16, 17, 33} {
		for _, bn := range []int{0, 1, 16, 17, 320} {
			as := layouts(rng, an, geom.Vec3{})
			bs := layouts(rng, bn, geom.V(3, 2, 1.5))
			for aName, a := range as {
				for bName, b := range bs {
					where := fmt.Sprintf("%s[%d] × %s[%d]", aName, an, bName, bn)
					ref := newPairTable(a, b)
					total := an * bn
					wantHit, want := ref.fold(0, total, math.Inf(1))
					if got := geom.IntersectsBatch(a, b); got != wantHit {
						t.Errorf("%s: IntersectsBatch = %v, pairwise %v", where, got, wantHit)
					}
					if got := geom.MinDist2Batch(a, b, math.Inf(1)); got != want {
						t.Errorf("%s: MinDist2Batch = %v, pairwise %v", where, got, want)
					}
					cuts := rangeCuts(an, bn)
					for _, cut := range cuts {
						d := geom.MinDist2BatchRange(a, b, 0, cut, math.Inf(1), 0)
						if got := geom.MinDist2BatchRange(a, b, cut, total, d, 0); got != want {
							t.Errorf("%s cut %d: split MinDist2BatchRange = %v, pairwise %v", where, cut, got, want)
						}
					}
					for i, start := range cuts {
						for _, end := range cuts[i:] {
							rHit, r := ref.fold(start, end, math.Inf(1))
							if got := geom.IntersectsBatchRange(a, b, start, end); got != rHit {
								t.Errorf("%s [%d,%d): IntersectsBatchRange = %v, pairwise %v", where, start, end, got, rHit)
							}
							// Exact; seeded a float above the answer; stopping
							// at the answer itself, which must then be what
							// comes back, since nothing lies below it.
							for _, c := range [][2]float64{{math.Inf(1), 0}, {math.Nextafter(r, math.Inf(1)), 0}, {math.Inf(1), r}} {
								if got := geom.MinDist2BatchRange(a, b, start, end, c[0], c[1]); got != r {
									t.Errorf("%s [%d,%d) seed %v stop %v: MinDist2BatchRange = %v, pairwise %v", where, start, end, c[0], c[1], got, r)
								}
							}
						}
					}
				}
			}
		}
	}
}

// FuzzMinDist2BatchRange holds the range kernels to the pairwise fold over
// any range of any two small sets in any layout, under any seed and stop
// bound: the exact minimum (or the seed) when it is above stop2, and else a
// value between the minimum and stop2.
func FuzzMinDist2BatchRange(f *testing.F) {
	inf := math.Inf(1)
	f.Add(uint8(17), uint8(20), uint16(5), uint16(300), inf, 0.0, uint8(0), int64(1))
	f.Add(uint8(33), uint8(17), uint16(20), uint16(561), inf, 1.0, uint8(5), int64(2))
	f.Add(uint8(16), uint8(16), uint16(0), uint16(256), 4.0, 0.25, uint8(10), int64(3))
	f.Add(uint8(15), uint8(1), uint16(3), uint16(14), inf, 0.0, uint8(15), int64(4))
	f.Add(uint8(1), uint8(39), uint16(7), uint16(30), 0.5, 0.5, uint8(3), int64(5))
	f.Add(uint8(0), uint8(9), uint16(0), uint16(0), inf, 0.0, uint8(12), int64(6))
	names := []string{"packed", "gathered", "sliced", "tree-ordered"}
	f.Fuzz(func(t *testing.T, an, bn uint8, start, end uint16, seed, stop2 float64, layout uint8, src int64) {
		na, nb := int(an%40), int(bn%40)
		rng := rand.New(rand.NewSource(src))
		a := layouts(rng, na, geom.Vec3{})[names[layout%4]]
		b := layouts(rng, nb, geom.V(3, 2, 1.5))[names[layout/4%4]]
		total := na * nb
		s, e := int(start)%(total+1), int(end)%(total+1)
		if s > e {
			s, e = e, s
		}
		if !(seed >= 0) {
			seed = inf
		}
		if !(stop2 >= 0) {
			stop2 = 0
		}
		wantHit, want := newPairTable(a, b).fold(s, e, seed)
		if got := geom.IntersectsBatchRange(a, b, s, e); got != wantHit {
			t.Fatalf("[%d,%d) of %d×%d: IntersectsBatchRange = %v, pairwise %v", s, e, na, nb, got, wantHit)
		}
		got := geom.MinDist2BatchRange(a, b, s, e, seed, stop2)
		if want > stop2 && got != want || want <= stop2 && !(want <= got && got <= stop2) {
			t.Fatalf("[%d,%d) of %d×%d seed %v stop %v: MinDist2BatchRange = %v, pairwise %v", s, e, na, nb, seed, stop2, got, want)
		}
	})
}
