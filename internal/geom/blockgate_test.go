package geom_test

import (
	"fmt"
	"math"
	"math/rand"
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
		ts[i] = geom.Tri(p(), p(), p())
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
								if got := geom.MinDist2Rect(x, x0, x1, y, y0, y1, seed); got != expect {
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

// TestBatchKernelsMatchPairwiseOnEveryLayout runs the whole-product kernels
// — what brute force, the device and the partition groups call — over
// layout × layout, and the range kernel split at every kind of boundary.
func TestBatchKernelsMatchPairwiseOnEveryLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	as := layouts(rng, 37, geom.Vec3{})
	bs := layouts(rng, 50, geom.V(3, 2, 1.5))
	for an, a := range as {
		for bn, b := range bs {
			wantHit, want := pairwise(a, 0, a.Len(), b, 0, b.Len(), math.Inf(1))
			if got := geom.IntersectsBatch(a, b); got != wantHit {
				t.Errorf("%s × %s: IntersectsBatch = %v, pairwise %v", an, bn, got, wantHit)
			}
			if got := geom.MinDist2Batch(a, b, math.Inf(1)); got != want {
				t.Errorf("%s × %s: MinDist2Batch = %v, pairwise %v", an, bn, got, want)
			}
			total := a.Len() * b.Len()
			for _, cut := range []int{0, 1, 15, 16, 17, 50, 51, 66, 67, total - 1, total} {
				d := geom.MinDist2BatchRange(a, b, 0, cut, math.Inf(1))
				if got := geom.MinDist2BatchRange(a, b, cut, total, d); got != want {
					t.Errorf("%s × %s cut %d: split MinDist2BatchRange = %v, pairwise %v", an, bn, cut, got, want)
				}
				hit := geom.IntersectsBatchRange(a, b, 0, cut) || geom.IntersectsBatchRange(a, b, cut, total)
				if hit != wantHit {
					t.Errorf("%s × %s cut %d: split IntersectsBatchRange = %v, pairwise %v", an, bn, cut, hit, wantHit)
				}
			}
		}
	}
}
