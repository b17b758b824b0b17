package core

// The refinement executor of IntersectJoin and WithinJoin: the FPR ladder
// (Alg. 1/2 of the paper) written once, as stage functions over one
// candidate pair —
//
//	feed (filter + margin plan) → decodePair → evaluate → gatherOne
//
// — driven inline (drive): each runPerTarget worker feeds its target and
// walks every emitted pair up the ladder itself, one pair at a time; the GPU
// accelerators launch their kernels from inside evaluate. DESIGN.md §11 says
// why the stages are not overlapped.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/index/rtree"
	"repro/internal/quarantine"
	"repro/internal/storage"
)

// pairWork is one candidate pair riding the ladder: gatherOne advances li
// until the pair settles.
type pairWork struct {
	t, s int64
	li   int // index into the LOD ladder
	// to and so are the decoded objects at lods[li], attached by decodePair
	// and dropped again when the pair advances.
	to, so obj
}

// joinRun is one IntersectJoin or WithinJoin execution: the query-wide state
// the stage functions read.
type joinRun struct {
	*evalCtx
	kind           QueryKind // IntersectKind or WithinKind
	target, source *Dataset
	dist           float64 // WithinKind only
	stop2          float64 // withinStop2(dist); WithinKind only
	lods           []int
	ftree          *rtree.Tree
	sink           *resultSink
}

// join executes IntersectJoin (dist ignored) or WithinJoin.
func (e *Engine) join(ctx context.Context, kind QueryKind, target, source *Dataset, dist float64, q QueryOptions) ([]Pair, *Stats, error) {
	start := time.Now()
	pair := pairOf(kind, target, source)
	x := &joinRun{
		evalCtx: newEvalCtx(e, q, newCollector(source.maxLOD, q, start)),
		kind:    kind, target: target, source: source, dist: dist, stop2: withinStop2(dist),
		lods:  e.schedule(&q, minInt(target.maxLOD, source.maxLOD), pair),
		ftree: source.filterTree(q.Accel),
	}
	x.sink = newResultSink(len(x.scratch))
	err := x.drive(ctx)
	// Even an aborted query reports the work it did: phase times and exact
	// cache attribution up to the failure point.
	st := x.finish(start)
	if err != nil {
		return nil, st, err
	}
	if q.Paradigm == FPR {
		e.cal.observe(pair, x.lods[len(x.lods)-1], st)
	}
	return x.sink.sorted(), st, nil
}

// upper is the distance bound for evaluating a within pair at ladder rung
// li: dist, inflated so a distance exactly equal to it is still found and
// returned exactly. Under margin scheduling the rungs from which a jump can
// still skip an entry (two or more below the top) search up to
// marginJumpFactor·dist instead, so distances up to there are measured
// exactly — gatherOne's jump signal (see sched.go); the final two rungs keep
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
	x.sink.add(slot, Pair{Target: t, Source: s})
	x.col.n[rowResults].Add(1)
}

// drive runs the stages: each runPerTarget worker feeds its target and
// walks every emitted pair up the ladder on its own slot. The worker's
// context is checked before each decode, so a cancelled query, or one whose
// sibling worker failed, stops between pairs and reports the cause.
func (x *joinRun) drive(ctx context.Context) error {
	return runPerTarget(ctx, x.target, x.opts.workers(x.e), func(ctx context.Context, slot int, o *storage.Object) error {
		var abort error
		fail := func(err error) { abort = err }
		x.feed(slot, o, func(s int64, li int) {
			w := pairWork{t: o.ID, s: s, li: li}
			for abort == nil {
				if ctx.Err() != nil {
					fail(context.Cause(ctx))
					return
				}
				if !x.decodePair(&w, slot, fail) {
					return
				}
				x.col.evalPair(x.lods[w.li])
				advanced, err := x.gatherOne(&w, x.evaluate(&w), slot)
				if err != nil {
					x.gatherFailure(slot, &w, err, fail)
				}
				if !advanced {
					return
				}
			}
		})
		return abort
	}, x.deg.backstop(x.e, x.target))
}

// feed is stage 1 for one target object: the filtering step, then the
// margin plan (sched.go). What bounds alone decide is settled here on the
// caller's slot with no decode at all — within-distance whole-subtree and
// MBB acceptances, MBB rejections; every other candidate goes to emit with
// its entry rung: the bottom of the ladder, or the top for reject-leaning
// pairs. Routing never changes a verdict, only where it is reached.
func (x *joinRun) feed(slot int, o *storage.Object, emit func(s int64, li int)) {
	sc := x.scratch[slot].reset()
	x.col.filterPhase(func() {
		if x.kind == IntersectKind {
			x.filterIntersect(o, sc)
		} else {
			x.filterWithin(o, sc)
		}
	})
	x.col.n[rowCandidates].Add(int64(len(sc.def) + len(sc.ids)))
	sortIDs(sc.def)
	for _, id := range sc.def {
		x.col.boundsDecided() // filter-phase MAXDIST acceptance
		x.accept(slot, o.ID, id)
	}
	sortIDs(sc.ids)
	margin := x.opts.marginSched()
	topLI := len(x.lods) - 1
	tb := o.MBB()
	for _, id := range sc.ids {
		li := 0
		// A source object missing from the tileset (a salvage hole) is
		// emitted unplanned; its decode surfaces the error.
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
		emit(id, li)
	}
}

// filterIntersect is the IntersectJoin filtering step: MBB intersection
// against the global index with per-worker dedup scratch. Under a Partition
// accelerator the index holds surface patches, which a target wholly inside
// a source's interior meets none of; its MBB then lies inside the source's,
// so the whole-object tree supplies those sources as well. They walk the
// ladder like any other candidate: every rung tests containment of
// MBB-nested pairs (gatherOne).
func (x *joinRun) filterIntersect(o *storage.Object, sc *filterScratch) {
	self := x.target.seq == x.source.seq
	tb := o.MBB()
	x.ftree.SearchIntersect(tb, func(ent rtree.Entry) bool {
		if !self || ent.ID != o.ID {
			sc.ids = sc.addNew(sc.ids, ent.ID)
		}
		return true
	})
	if x.ftree == x.source.tree {
		return
	}
	x.source.tree.SearchIntersect(tb, func(ent rtree.Entry) bool {
		if (!self || ent.ID != o.ID) && ent.Box.Contains(tb) {
			sc.ids = sc.addNew(sc.ids, ent.ID)
		}
		return true
	})
}

// filterWithin is the WithinJoin filtering step (§4.2): MINDIST/MAXDIST
// pruning splits the index answer into definite acceptances (sc.def) and
// refinement candidates (sc.ids).
func (x *joinRun) filterWithin(o *storage.Object, sc *filterScratch) {
	self := x.target.seq == x.source.seq
	dedup := func(ents []rtree.Entry, ids []int64) []int64 {
		for _, ent := range ents {
			if !self || ent.ID != o.ID {
				ids = sc.addNew(ids, ent.ID)
			}
		}
		return ids
	}
	r := x.ftree.SearchWithin(o.MBB(), x.dist)
	sc.def = dedup(r.Definite, sc.def)
	sc.ids = dedup(r.Candidates, sc.ids)
}

// decodePair attaches both meshes of w at its current LOD through the
// guarded cache path (quarantine, retries, warm starts), returning false
// when the pair is finished: the failed object is recorded once and the
// pair marked uncertain per the degrade contract, or the query aborts via
// fail under FailFast and on budget/context errors. A panic out of the
// FailFast decode path takes the same route as a decode error.
func (x *joinRun) decodePair(w *pairWork, slot int, fail func(error)) (ok bool) {
	handle := func(ds *Dataset, id int64, err error) {
		skip, aerr := x.degradeErr(slot, ds, id, err)
		if !skip {
			fail(aerr)
			return
		}
		x.deg.uncertain(slot, Pair{Target: w.t, Source: w.s})
	}
	defer func() {
		if r := recover(); r != nil {
			handle(x.target, w.t, fmt.Errorf("core: worker panic on object %d: %v", w.t, r))
			ok = false
		}
	}()
	lod := x.lods[w.li]
	to, err := x.decode(x.target, w.t, lod)
	if err != nil {
		handle(x.target, w.t, err)
		return false
	}
	so, err := x.decode(x.source, w.s, lod)
	if err != nil {
		handle(x.source, w.s, err)
		return false
	}
	w.to, w.so = to, so
	return true
}

// verdict is evaluate's outcome for one pair: hit for intersect; for within
// the plain distance d (see minDist: exact unless within dist, +Inf beyond
// the rung's bound); err when the evaluator panicked.
type verdict struct {
	hit bool
	d   float64
	err error
}

// evaluate is one decoded pair's predicate at its current LOD, computed on
// the calling goroutine by the configured accelerator.
func (x *joinRun) evaluate(w *pairWork) (v verdict) {
	defer func() {
		if r := recover(); r != nil {
			v = verdict{err: fmt.Errorf("core: evaluator panic on pair (%d,%d): %v", w.t, w.s, r)}
		}
	}()
	if x.kind == IntersectKind {
		return verdict{hit: x.intersects(w.to, w.so)}
	}
	return verdict{d: x.minDist(w.to, w.so, x.upper(w.li), x.stop2)}
}

// gatherOne settles one verdict on the caller's slot. advanced=true means
// the pair survived this LOD and moved to a higher rung for the caller to
// decode next; a non-nil error is an evaluation failure for gatherFailure.
func (x *joinRun) gatherOne(w *pairWork, v verdict, slot int) (advanced bool, err error) {
	if v.err != nil {
		return false, v.err
	}
	defer func() {
		if r := recover(); r != nil {
			advanced = false
			err = fmt.Errorf("core: worker panic on object %d: %v", w.t, r)
		}
	}()
	lod := x.lods[w.li]
	topLI := len(x.lods) - 1

	var hit bool
	if x.kind == WithinKind {
		// A low-LOD distance within range is final (PPVP property 2); one
		// above it is inconclusive below the top LOD, and exact (no stop).
		hit = v.d <= x.dist
	} else if hit = v.hit; !hit {
		// No face hit: for MBB-nested pairs a vertex of one low-LOD mesh
		// inside the other low-LOD solid still settles the pair at this LOD
		// — sound by the subset property: a point on a low-LOD surface lies
		// inside that object's full solid, so finding it inside the other
		// object's low-LOD solid (⊆ its full solid) proves the solids overlap.
		oMBB := x.target.Tileset.Object(w.t).MBB()
		cMBB := x.source.Tileset.Object(w.s).MBB()
		if oMBB.Contains(cMBB) && len(w.so.mesh.Vertices) > 0 {
			hit = x.pointInside(w.to, w.so.mesh.Vertices[0])
		} else if cMBB.Contains(oMBB) && len(w.to.mesh.Vertices) > 0 {
			hit = x.pointInside(w.so, w.to.mesh.Vertices[0])
		}
	}
	switch {
	case hit:
		x.col.settlePair(lod)
		x.accept(slot, w.t, w.s)
		return false, nil
	case w.li == topLI && x.kind == WithinKind:
		x.col.settlePair(lod) // settled by rejection at top LOD
		return false, nil
	case w.li == topLI:
		// Containment handling at the highest LOD (Alg. 1, steps 8–12);
		// both meshes are already decoded at the top LOD here.
		if x.containsObject(w.to, w.so) || x.containsObject(w.so, w.to) {
			x.accept(slot, w.t, w.s)
		}
		return false, nil
	}
	w.li++
	if x.kind == WithinKind && x.opts.marginSched() && w.li < topLI && v.d > x.dist*marginJumpFactor {
		// Margin jump (sched.go): the pair measured over marginJumpFactor·dist
		// — overwhelmingly a reject, which only the top LOD can decide — so
		// it moves there instead of to the next rung. (From the rung just
		// below the top a jump would skip nothing; upper kept the narrow
		// bound there and the pair simply walks.)
		x.col.skipLODs(topLI - w.li)
		w.li = topLI
	}
	w.to, w.so = obj{}, obj{}
	return true, nil
}

// gatherFailure applies the degrade contract to an evaluation failure: the
// target object is quarantined and recorded (as the runPerTarget backstop
// would), the pair marked uncertain; FailFast aborts.
func (x *joinRun) gatherFailure(slot int, w *pairWork, err error, fail func(error)) {
	if x.deg == nil || isCtxErr(err) {
		fail(err)
		return
	}
	x.e.quar.Failure(quarantine.Key{Dataset: x.target.seq, Object: w.t}, firstLine(err.Error()))
	if aerr := x.deg.fail(slot, x.target, w.t, err); aerr != nil {
		fail(aerr)
		return
	}
	x.deg.uncertain(slot, Pair{Target: w.t, Source: w.s})
}
