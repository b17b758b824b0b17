package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"time"

	"repro/internal/index/rtree"
	"repro/internal/storage"
)

// nnCand is one nearest-neighbor candidate with its live distance range
// r = [MINDIST, MAXDIST] (Alg. 3 of the paper). MINDIST starts as the MBB
// MINDIST and collapses to the exact distance at the highest LOD; MAXDIST
// starts as the MBB-union diagonal and only decreases as lower-LOD
// distances are measured (PPVP property 2 makes every measured distance an
// upper bound of the true distance).
type nnCand struct {
	id      int64
	minDist float64
	maxDist float64
	exact   bool
}

// nnCands merges the NN filter's entries into one candidate per object,
// ordered by ID. With the sub-object tree one object can yield several
// entries; they merge by taking the minimum of both range endpoints. raw is
// reordered, and the candidates live in the worker's scratch until its next
// target.
func (f *filterScratch) nnCands(raw []rtree.Candidate) []*nnCand {
	slices.SortFunc(raw, func(a, b rtree.Candidate) int { return cmp.Compare(a.ID, b.ID) })
	f.nn = f.nn[:0]
	for _, rc := range raw {
		if n := len(f.nn); n > 0 && f.nn[n-1].id == rc.ID {
			c := &f.nn[n-1]
			c.minDist = math.Min(c.minDist, rc.MinDist)
			c.maxDist = math.Min(c.maxDist, rc.MaxDist)
			continue
		}
		f.nn = append(f.nn, nnCand{id: rc.ID, minDist: rc.MinDist, maxDist: rc.MaxDist})
	}
	f.nnp = f.nnp[:0]
	for i := range f.nn {
		f.nnp = append(f.nnp, &f.nn[i])
	}
	return f.nnp
}

// NNJoin returns, for each object of target, its nearest neighbor in
// source (self excluded when the datasets are identical). Targets with no
// candidate (empty source) are omitted.
func (e *Engine) NNJoin(ctx context.Context, target, source *Dataset, q QueryOptions) ([]Neighbor, *Stats, error) {
	q.K = 1
	return e.KNNJoin(ctx, target, source, q)
}

// KNNJoin returns, for each object of target, its q.K nearest neighbors in
// source, closest first. Results are sorted by target then rank.
func (e *Engine) KNNJoin(ctx context.Context, target, source *Dataset, q QueryOptions) ([]Neighbor, *Stats, error) {
	if q.K <= 0 {
		q.K = 1
	}
	start := time.Now()
	col := newCollector(source.maxLOD, q, start)
	ec := newEvalCtx(e, q, col)
	pair := pairOf(NNKind, target, source)
	lods := e.schedule(&q, minInt(target.maxLOD, source.maxLOD), pair)
	tree := source.filterTree(q.Accel)

	// Per-worker neighbor buffers, merged after the run (no lock on the
	// hot path; runPerTarget guarantees slot exclusivity).
	sinkBuf := make([][]Neighbor, max(q.workers(e), 1))

	err := runPerTarget(ctx, target, q.workers(e), func(_ context.Context, w int, o *storage.Object) error {
		// Filtering step: R-tree NN candidate generation with
		// MINMAXDIST-style pruning.
		sc := &ec.scratch[w]
		var cands []*nnCand
		col.filterPhase(func() {
			var skip func(rtree.Entry) bool
			if self := source.selfID(o); self >= 0 {
				skip = func(ent rtree.Entry) bool { return ent.ID == self }
			}
			cands = sc.nnCands(tree.NNCandidates(o.MBB(), q.K, skip))
		})
		col.n[rowCandidates].Add(int64(len(cands)))
		if len(cands) == 0 {
			return nil
		}
		if q.marginSched() {
			// Margin ordering: evaluate the most promising candidates (by
			// MBB MINDIST) first so their measured distances tighten the
			// MINMAXDIST threshold before the long-shot candidates come up —
			// those then fall to the pre-decode prune and are never decoded.
			// Order only shifts which LOD settles a pair, never the verdict.
			// The static reference keeps nnCands' ID order.
			slices.SortFunc(cands, byMinDistThenID)
		}

		// Degrade bookkeeping: candidates whose decode failed are parked
		// here with their last known MINDIST (a lower bound of the true
		// distance) so the final ranking can tell which of them could still
		// belong in the top k. targetFailed means nothing more can be
		// ranked for this target at all.
		var failed []*nnCand
		targetFailed := false

		// Progressive refinement (Alg. 3): measure candidate distances at
		// ascending LODs, shrinking MAXDISTs and pruning with the k-th
		// smallest MAXDIST, until only k candidates survive or the highest
		// LOD settles everything.
		// kthOver returns the k-th smallest MAXDIST over the two candidate
		// slices — a sound MINMAXDIST threshold: each MAXDIST upper-bounds
		// its candidate's true distance, so at least k candidates lie within
		// the k-th smallest of them, and anything whose MINDIST exceeds it is
		// provably out of the top k. The two-slice form lets the eval pass
		// pass disjoint views (kept so far + not yet visited) of its
		// in-place-filtered array without double-counting a candidate.
		kthOver := func(a, b []*nnCand) float64 {
			if len(a)+len(b) < q.K {
				return math.Inf(1)
			}
			maxd := sc.maxd[:0]
			for _, c := range a {
				maxd = append(maxd, c.maxDist)
			}
			for _, c := range b {
				maxd = append(maxd, c.maxDist)
			}
			slices.Sort(maxd)
			sc.maxd = maxd
			return maxd[q.K-1]
		}
		kth := func() float64 { return kthOver(cands, nil) }
		minmax := kth()

		// prevEvalLOD tracks the last LOD whose evaluations tightened
		// MINMAXDIST; prunes triggered by that tightening are attributed
		// to it in the Fig. 12 statistics. -1 means the R-tree filter.
		prevEvalLOD := -1
		for li, lod := range lods {
			if len(cands) <= q.K && allExact(cands) {
				break
			}
			last := li == len(lods)-1
			// Once no more candidates can be pruned, intermediate LODs are
			// pure overhead: jump straight to the highest LOD for the exact
			// distances.
			if len(cands) <= q.K && !last {
				continue
			}
			to, err := ec.decode(target, o.ID, lod)
			if err != nil {
				skip, aerr := ec.degradeErr(w, target, o.ID, err)
				if !skip {
					return aerr
				}
				targetFailed = true
				break
			}
			kept := cands[:0]
			for ci := 0; ci < len(cands); ci++ {
				c := cands[ci]
				// MINMAXDIST keeps decreasing; re-check before decoding.
				// A candidate dropped here was settled by the previous
				// LOD's refinement (or by the filter when none ran yet) —
				// its decode at this LOD never happens, which is where the
				// margin ordering's savings come from.
				if c.minDist > minmax*(1+1e-12) {
					col.boundsDecided()
					if prevEvalLOD >= 0 {
						col.settlePair(prevEvalLOD)
					}
					continue
				}
				so, err := ec.decode(source, c.id, lod)
				if err != nil {
					skip, aerr := ec.degradeErr(w, source, c.id, err)
					if !skip {
						return aerr
					}
					failed = append(failed, c)
					continue
				}
				col.evalPair(lod)
				// The search is bounded by the candidate's own MAXDIST and by
				// the running k-th MAXDIST: a distance at or beyond the latter
				// can neither lower it nor enter the top k, so the kernels
				// need not measure it (d is then +Inf).
				d := ec.minDist(to, so, math.Min(c.maxDist, minmax)*(1+1e-12), 0)
				if d < c.maxDist {
					c.maxDist = d
				}
				if last && math.IsInf(d, 1) && minmax < c.maxDist {
					// Beyond the k-th MAXDIST at full resolution: out of the
					// top k for good, as the post-pass prune would find.
					col.settlePair(lod)
					continue
				}
				if last {
					// The range collapses to the exact distance.
					c.minDist = math.Min(d, c.maxDist)
					c.maxDist = c.minDist
					c.exact = true
				}
				kept = append(kept, c)
				if q.marginSched() {
					// In-pass tightening for any k: the live candidate set is
					// exactly kept ∪ cands[ci+1:] (disjoint views of the
					// in-place filter — the full cands slice would count a
					// dropped slot twice and over-tighten unsoundly).
					minmax = kthOver(kept, cands[ci+1:])
				} else if q.K == 1 && c.maxDist < minmax {
					// Static reference semantics: in-pass tightening only for
					// k = 1; for larger k the threshold is recomputed between
					// passes.
					minmax = c.maxDist
				}
			}
			cands = kept
			minmax = kth()
			// Post-pass prune (steps 14–16).
			kept = cands[:0]
			for _, c := range cands {
				if c.minDist > minmax*(1+1e-12) {
					col.settlePair(lod)
					continue
				}
				kept = append(kept, c)
			}
			cands = kept
			prevEvalLOD = lod
		}
		// Every ladder ends at the top LOD, whose pass leaves each kept
		// candidate exact: unless the target failed, cands rank exactly.

		if targetFailed {
			// Nothing can be ranked without the target's geometry: every
			// surviving and parked candidate is unsettled.
			for _, c := range cands {
				ec.deg.uncertain(w, Pair{Target: o.ID, Source: c.id})
			}
			for _, c := range failed {
				ec.deg.uncertain(w, Pair{Target: o.ID, Source: c.id})
			}
			return nil
		}

		slices.SortFunc(cands, byMinDistThenID)
		k := q.K
		if k > len(cands) {
			k = len(cands)
		}
		for _, c := range cands[:k] {
			sinkBuf[w] = append(sinkBuf[w], Neighbor{Target: o.ID, Source: c.id, Dist: c.minDist})
			col.n[rowResults].Add(1)
		}
		// Degrade: a parked candidate whose MINDIST lower bound does not
		// exceed the k-th reported distance could displace a neighbor, so
		// the (target, candidate) relation is unsettled. Lower bounds above
		// the cut prove the candidate out of the top k — certain exclusion.
		if len(failed) > 0 {
			cut := math.Inf(1)
			if len(cands) >= q.K {
				cut = cands[k-1].minDist
			}
			for _, c := range failed {
				if len(cands) < q.K || c.minDist <= cut*(1+1e-12) {
					ec.deg.uncertain(w, Pair{Target: o.ID, Source: c.id})
				}
			}
		}
		return nil
	}, ec.deg.backstop(e, target))
	if err != nil {
		return nil, ec.finish(start), err
	}

	var sink []Neighbor
	for _, b := range sinkBuf {
		sink = append(sink, b...)
	}
	slices.SortFunc(sink, CompareNeighbors)
	st := ec.finish(start)
	if q.Paradigm == FPR {
		e.cal.observe(pair, lods[len(lods)-1], st)
	}
	return sink, st, nil
}

// CompareNeighbors orders neighbors by target, then distance, then source —
// the deterministic result order of KNNJoin; distance ties fall through to
// the ID order.
func CompareNeighbors(a, b Neighbor) int {
	return cmp.Or(cmp.Compare(a.Target, b.Target), cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Source, b.Source))
}

// byMinDistThenID orders candidates by MINDIST, ties (MBB bounds or settled
// exact distances alike) falling through to the deterministic ID order.
func byMinDistThenID(a, b *nnCand) int {
	return cmp.Or(cmp.Compare(a.minDist, b.minDist), cmp.Compare(a.id, b.id))
}

func allExact(cands []*nnCand) bool {
	for _, c := range cands {
		if !c.exact {
			return false
		}
	}
	return true
}
