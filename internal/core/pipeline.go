package core

// The join executor of IntersectJoin, WithinJoin and KNNJoin: the filter
// step, then progressive refinement up the LOD ladder (Alg. 1–3 of the
// paper), written once. Engine.join sets up one joinRun (collector, eval
// context, ladder, filter tree, result sink) and drive hands each target
// object, on its runPerTarget worker, to
//
//	refine  (intersect, within): filter + margin plan → walk each pair up the ladder
//	nearest (kNN, nn.go):        NN filter → one pass per LOD over the target's candidates
//
// Each worker decodes and evaluates its own pairs, one at a time; the GPU
// accelerators launch their kernels from inside the evaluation. DESIGN.md
// §11 says why nothing is overlapped.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/index/rtree"
	"repro/internal/storage"
)

// joinRun is one join execution: the query-wide state refine and nearest
// read.
type joinRun struct {
	*evalCtx
	kind           QueryKind
	target, source *Dataset
	dist           float64 // WithinKind only
	stop2          float64 // withinStop2(dist); WithinKind only
	lods           []int
	ftree          *rtree.Tree
	pairs          *resultSink[Pair]     // IntersectKind and WithinKind answers
	nbrs           *resultSink[Neighbor] // NNKind answers
}

// join executes one join of kind: dist is read by WithinKind only, the
// neighbour count q.K by NNKind only. The answer is in pairs (intersect,
// within) or neighbours (kNN).
func (e *Engine) join(ctx context.Context, kind QueryKind, target, source *Dataset, dist float64, q QueryOptions) ([]Pair, []Neighbor, *Stats, error) {
	start := time.Now()
	pair := pairOf(kind, target, source)
	x := &joinRun{
		evalCtx: newEvalCtx(e, q, newCollector(source.maxLOD, q, start)),
		kind:    kind, target: target, source: source, dist: dist, stop2: withinStop2(dist),
		lods:  e.schedule(&q, min(target.maxLOD, source.maxLOD), pair),
		ftree: source.filterTree(q.Accel),
	}
	x.pairs = newResultSink(len(x.scratch), ComparePairs)
	x.nbrs = newResultSink(len(x.scratch), CompareNeighbors)
	err := x.drive(ctx)
	// Even an aborted query reports the work it did: phase times and exact
	// cache attribution up to the failure point.
	st := x.finish(start)
	if err != nil {
		return nil, nil, st, err
	}
	if q.Paradigm == FPR {
		e.cal.observe(pair, x.lods[len(x.lods)-1], st)
	}
	return x.pairs.sorted(), x.nbrs.sorted(), st, nil
}

// upper is the distance bound for evaluating a within pair at ladder rung
// li: dist, inflated so a distance exactly equal to it is still found and
// returned exactly. Under margin scheduling the rungs from which a jump can
// still skip an entry (two or more below the top) search up to
// marginJumpFactor·dist instead, so distances up to there are measured
// exactly — walk's jump signal (see sched.go); the final two rungs keep
// the narrow bound, since a deeper search would buy nothing. Accepts require
// d ≤ dist under either bound.
func (x *joinRun) upper(li int) float64 {
	u := x.dist * (1 + 1e-12)
	if x.opts.marginSched() && li < len(x.lods)-2 {
		u *= marginJumpFactor
	}
	return u
}

// accept reports (t, s) as a result on the caller's slot.
func (x *joinRun) accept(slot int, t, s int64) {
	x.pairs.add(slot, Pair{Target: t, Source: s})
	x.col.n[rowResults].Add(1)
}

// drive hands each target object, on its runPerTarget worker slot, to
// refine or nearest. Both check the worker's context before every decode,
// so a cancelled query, or one whose sibling worker failed, stops between
// pairs and reports the cause.
func (x *joinRun) drive(ctx context.Context) error {
	return runPerTarget(ctx, x.target, x.opts.workers(x.e), func(ctx context.Context, slot int, o *storage.Object) error {
		if x.kind == NNKind {
			return x.nearest(ctx, slot, o)
		}
		return x.refine(ctx, slot, o)
	}, x.deg.backstop(x.e, x.target))
}

// refine is the intersect and within join of one target object: the
// filtering step, then the margin plan (sched.go). What bounds alone decide
// is settled here with no decode at all — within-distance whole-subtree and
// MBB acceptances, MBB rejections; every other candidate is walked up the
// ladder from its entry rung: the bottom, or the top for reject-leaning
// pairs. Routing never changes a verdict, only where it is reached.
func (x *joinRun) refine(ctx context.Context, slot int, o *storage.Object) error {
	sc := x.scratch[slot].reset()
	x.col.filterPhase(func() {
		if x.kind == IntersectKind {
			x.filterIntersect(o, sc)
		} else {
			x.filterWithin(o, sc)
		}
	})
	x.col.n[rowCandidates].Add(int64(len(sc.def) + len(sc.ids)))
	slices.Sort(sc.def)
	for _, id := range sc.def {
		x.col.boundsDecided() // filter-phase MAXDIST acceptance
		x.accept(slot, o.ID, id)
	}
	slices.Sort(sc.ids)
	margin := x.opts.marginSched()
	topLI := len(x.lods) - 1
	tb := o.MBB()
	for _, id := range sc.ids {
		li := 0
		// A source object missing from the tileset (a salvage hole) is
		// walked unplanned; its decode surfaces the error.
		if so := x.source.Tileset.Object(id); margin && so != nil {
			if x.kind == WithinKind {
				switch planWithin(tb, so.MBB(), x.dist) {
				case planAccept:
					x.col.boundsDecided()
					x.accept(slot, o.ID, id)
					continue
				case planReject:
					x.col.boundsDecided()
					continue
				}
			} else if planIntersect(tb, so.MBB()) == planDirect {
				x.col.skipLODs(topLI)
				li = topLI
			}
		}
		if err := x.walk(ctx, slot, o.ID, id, li); err != nil {
			return err
		}
	}
	return nil
}

// filterIntersect is the IntersectJoin filtering step: MBB intersection
// against the global index with per-worker dedup scratch. Under a Partition
// accelerator the index holds surface patches, which a target wholly inside
// a source's interior meets none of; its MBB then lies inside the source's,
// so the whole-object tree supplies those sources as well. They walk the
// ladder like any other candidate: every rung tests containment of
// MBB-nested pairs (walk).
func (x *joinRun) filterIntersect(o *storage.Object, sc *filterScratch) {
	self := x.source.selfID(o)
	tb := o.MBB()
	x.ftree.SearchIntersect(tb, func(ent rtree.Entry) bool {
		if ent.ID != self {
			sc.ids = sc.addNew(sc.ids, ent.ID)
		}
		return true
	})
	if x.ftree == x.source.tree {
		return
	}
	x.source.tree.SearchIntersect(tb, func(ent rtree.Entry) bool {
		if ent.ID != self && ent.Box.Contains(tb) {
			sc.ids = sc.addNew(sc.ids, ent.ID)
		}
		return true
	})
}

// filterWithin is the WithinJoin filtering step (§4.2): MINDIST/MAXDIST
// pruning splits the index answer into definite acceptances (sc.def) and
// refinement candidates (sc.ids).
func (x *joinRun) filterWithin(o *storage.Object, sc *filterScratch) {
	self := x.source.selfID(o)
	dedup := func(ents []rtree.Entry, ids []int64) []int64 {
		for _, ent := range ents {
			if ent.ID != self {
				ids = sc.addNew(ids, ent.ID)
			}
		}
		return ids
	}
	r := x.ftree.SearchWithin(o.MBB(), x.dist)
	sc.def = dedup(r.Definite, sc.def)
	sc.ids = dedup(r.Candidates, sc.ids)
}

// walk climbs the pair (t, s) up the ladder from rung li until it settles:
// decode both objects at the rung's LOD, evaluate, then accept, reject at
// the top, test containment at the top, or advance — to the next rung or,
// on a margin jump, to the top.
//
// Failures follow the degrade contract: a decode error aborts under FailFast
// (and on context or budget errors), and under Degrade records the failed
// object and marks the pair uncertain. A panic anywhere in the walk is
// charged to the target: FailFast aborts with an error naming it, Degrade
// also quarantines it, as the runPerTarget backstop would.
func (x *joinRun) walk(ctx context.Context, slot int, t, s int64, li int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: worker panic on object %d: %v", t, r)
			if x.deg != nil {
				x.e.quar.Failure(x.target.Tileset.Object(t).Comp.ID(), firstLine(err.Error()))
			}
			err = x.unsettled(slot, t, s, x.target, t, err)
		}
	}()
	topLI := len(x.lods) - 1
	for {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		lod := x.lods[li]
		to, err := x.decode(x.target, t, lod)
		if err != nil {
			return x.unsettled(slot, t, s, x.target, t, err)
		}
		so, err := x.decode(x.source, s, lod)
		if err != nil {
			return x.unsettled(slot, t, s, x.source, s, err)
		}
		x.col.evalPair(lod)

		var hit bool
		d := 0.0
		if x.kind == WithinKind {
			// A low-LOD distance within range is final (PPVP property 2);
			// one above it is inconclusive below the top LOD, and exact (no
			// stop).
			d = x.minDist(to, so, x.upper(li), x.stop2)
			hit = d <= x.dist
		} else if hit = x.intersects(to, so); !hit {
			// No face hit: for MBB-nested pairs a vertex of one low-LOD mesh
			// inside the other low-LOD solid still settles the pair at this
			// LOD — sound by the subset property: a point on a low-LOD
			// surface lies inside that object's full solid, so finding it
			// inside the other object's low-LOD solid (⊆ its full solid)
			// proves the solids overlap.
			oMBB := x.target.Tileset.Object(t).MBB()
			cMBB := x.source.Tileset.Object(s).MBB()
			if oMBB.Contains(cMBB) && len(so.mesh.Vertices) > 0 {
				hit = x.pointInside(to, so.mesh.Vertices[0])
			} else if cMBB.Contains(oMBB) && len(to.mesh.Vertices) > 0 {
				hit = x.pointInside(so, to.mesh.Vertices[0])
			}
		}
		switch {
		case hit:
			x.col.settlePair(lod)
			x.accept(slot, t, s)
			return nil
		case li == topLI && x.kind == WithinKind:
			x.col.settlePair(lod) // settled by rejection at top LOD
			return nil
		case li == topLI:
			// Containment handling at the highest LOD (Alg. 1, steps 8–12);
			// both meshes are already decoded at the top LOD here.
			if x.containsObject(to, so) || x.containsObject(so, to) {
				x.accept(slot, t, s)
			}
			return nil
		}
		li++
		if x.kind == WithinKind && x.opts.marginSched() && li < topLI && d > x.dist*marginJumpFactor {
			// Margin jump (sched.go): the pair measured over
			// marginJumpFactor·dist — overwhelmingly a reject, which only
			// the top LOD can decide — so it moves there instead of to the
			// next rung. (From the rung just below the top a jump would skip
			// nothing; upper kept the narrow bound there and the pair simply
			// walks.)
			x.col.skipLODs(topLI - li)
			li = topLI
		}
	}
}

// unsettled applies the degrade contract to the pair (t, s) whose object
// (ds, id) failed with err: under FailFast, and on context or budget
// errors, the returned error aborts the query; under Degrade the object is
// recorded and the pair marked uncertain.
func (x *joinRun) unsettled(slot int, t, s int64, ds *Dataset, id int64, err error) error {
	skip, aerr := x.degradeErr(slot, ds, id, err)
	if skip {
		x.deg.uncertain(slot, Pair{Target: t, Source: s})
	}
	return aerr
}
