package core

// The refinement executor of IntersectJoin and WithinJoin: the FPR ladder
// (Alg. 1/2 of the paper) written once, as stage functions over one
// candidate pair —
//
//	feed (filter + margin plan) → decodePair → evaluate → gatherOne
//
// — and driven two ways over the same functions.
//
// The pipelined drive (ExecAuto) overlaps the stages. The feeder runs feed
// under runPerTarget and emits one work item per candidate pair at its entry
// rung of the LOD ladder. Decode workers pull items from an unbounded queue
// and attach the two meshes at the item's current LOD. The pack stage folds
// decoded items into contiguous batches of gpusim.PairTask — SoA cross
// products under BruteForce, host closures around evaluate for the
// tree/partition/GPU accelerators — and submits them to a double-buffered
// device stream. The gather stage collects verdicts in submission order and
// settles each pair through gatherOne: accept, reject-at-top-LOD, or requeue
// at a higher rung. Decoding LOD k+1 of one pair therefore overlaps
// evaluation of LOD k of another.
//
// The inline drive (ExecPerPair) runs the same stages one pair at a time on
// the runPerTarget worker that filtered the target: no queue, no decode
// workers, no stream, no device batches.
//
// Deadlock freedom of the pipelined drive: the only cycle in the stage graph
// is gather → decode (requeueing a surviving pair). The decode queue is
// unbounded, so the gather stage never blocks pushing to it; backpressure is
// applied at the stream (Submit blocks at StreamDepth in-flight launches),
// which gather alone drains. Termination: every emitted pair is settled
// exactly once (result, rejection, degrade-uncertain, or cancellation drop);
// when the feeder has finished and the outstanding count reaches zero the
// queue closes and the stages unwind in order.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpusim"
	"repro/internal/index/rtree"
	"repro/internal/quarantine"
	"repro/internal/storage"
)

// maxBatchTasks caps the pair tasks per submitted batch, bounding gather
// latency and the memory pinned by an in-flight launch.
const maxBatchTasks = 64

// taskBufPool recycles the pack stage's batch buffers; the gather stage
// returns each buffer after processing its verdicts, so steady-state
// batching allocates nothing per batch.
var taskBufPool = sync.Pool{New: func() any {
	s := make([]gpusim.PairTask, 0, maxBatchTasks)
	return &s
}}

// pairWork is one candidate pair riding the ladder. The same item is
// requeued with li advanced until the pair settles, so the pipelined drive
// allocates one item per candidate pair, not one per (pair, LOD).
type pairWork struct {
	t, s int64
	li   int // index into the LOD ladder
	// to and so are the decoded objects at lods[li], attached by the
	// decode stage and dropped again on requeue.
	to, so obj
}

// pairQueue is the unbounded MPMC queue feeding the decode stage. Unbounded
// is load-bearing: the gather stage requeues surviving pairs here and must
// never block, or the gather→decode cycle could deadlock against the
// stream's backpressure.
type pairQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []*pairWork
	head   int
	closed bool
}

func newPairQueue() *pairQueue {
	q := &pairQueue{}
	q.cond.L = &q.mu
	return q
}

func (q *pairQueue) push(w *pairWork) {
	q.mu.Lock()
	if !q.closed {
		// Compact the consumed prefix once it dominates the backing array.
		if q.head > 64 && q.head*2 >= len(q.items) {
			n := copy(q.items, q.items[q.head:])
			q.items = q.items[:n]
			q.head = 0
		}
		q.items = append(q.items, w)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

func (q *pairQueue) pop() (*pairWork, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return nil, false
	}
	w := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	return w, true
}

func (q *pairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// joinRun is one IntersectJoin or WithinJoin execution: the query-wide state
// the stage functions read. Both drives run the same stages over it.
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
	x := &joinRun{
		evalCtx: newEvalCtx(e, q, newCollector(source.maxLOD, q, start)),
		kind:    kind, target: target, source: source, dist: dist, stop2: withinStop2(dist),
		lods:  e.schedule(&q, minInt(target.maxLOD, source.maxLOD), kind),
		ftree: source.filterTree(q.Accel),
	}
	x.sink = newResultSink(x.slots)
	if ctx == nil {
		ctx = context.Background()
	}
	drive := x.drivePipelined
	if q.Exec == ExecPerPair {
		drive = x.driveInline
	}
	err := drive(ctx)
	// Even an aborted query reports the work it did: phase times and exact
	// cache attribution up to the failure point.
	st := x.finish(start)
	if err != nil {
		return nil, st, err
	}
	if q.Paradigm == FPR {
		e.cal.observe(kind, st)
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
	x.col.results.Add(1)
}

// driveInline is the ExecPerPair drive: each runPerTarget worker feeds its
// target and walks every emitted pair up the ladder itself, on its own slot.
func (x *joinRun) driveInline(ctx context.Context) error {
	return runPerTarget(ctx, x.target, x.opts.workers(x.e), func(slot int, o *storage.Object) error {
		var abort error
		fail := func(err error) { abort = err }
		x.feed(slot, o, func(s int64, li int) {
			w := pairWork{t: o.ID, s: s, li: li}
			for abort == nil && x.decodePair(&w, slot, fail) {
				x.col.evalPair(x.lods[w.li])
				requeued, err := x.gatherOne(&w, x.evaluate(&w), slot)
				if err != nil {
					x.gatherFailure(slot, &w, err, fail)
				}
				if !requeued {
					return
				}
			}
		})
		return abort
	}, x.deg.backstop(x.e, x.target))
}

// drivePipelined is the ExecAuto drive: the stages run as overlapped
// goroutines connected by the decode queue and the device stream.
func (x *joinRun) drivePipelined(ctx context.Context) error {
	workers := x.opts.workers(x.e)
	// Slot layout (evalCtx.slots): feeder [0,W), decode [W,2W), gather last.
	gatherSlot := x.slots - 1

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var failOnce sync.Once
	var firstErr error
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			cancel(err)
		})
	}

	queue := newPairQueue()
	var outstanding atomic.Int64
	var feederDone atomic.Bool
	maybeClose := func() {
		if feederDone.Load() && outstanding.Load() == 0 {
			queue.close()
		}
	}
	// settle marks one pair finished (result, rejection, uncertain, or
	// cancellation drop); the last settle after the feeder finished closes
	// the queue and lets the stages unwind.
	settle := func() {
		if outstanding.Add(-1) == 0 {
			maybeClose()
		}
	}

	// Stage 1 — feeder: filter and plan, emitting pairs at their entry rung.
	feedErr := make(chan error, 1)
	go func() {
		err := runPerTarget(ctx, x.target, workers, func(slot int, o *storage.Object) error {
			x.feed(slot, o, func(s int64, li int) {
				outstanding.Add(1)
				queue.push(&pairWork{t: o.ID, s: s, li: li})
			})
			return nil
		}, x.deg.backstop(x.e, x.target))
		feederDone.Store(true)
		maybeClose()
		feedErr <- err
	}()

	// Stage 2 — decode workers: attach both meshes at the item's current LOD.
	ready := make(chan *pairWork, 4*workers)
	var decWG sync.WaitGroup
	for i := 0; i < workers; i++ {
		slot := workers + i
		decWG.Add(1)
		go func() {
			defer decWG.Done()
			for {
				w, ok := queue.pop()
				if !ok {
					return
				}
				if ctx.Err() != nil || !x.decodePair(w, slot, fail) {
					settle()
					continue
				}
				select {
				case ready <- w:
				case <-ctx.Done():
					settle()
				}
			}
		}()
	}
	go func() {
		decWG.Wait()
		close(ready)
	}()

	// Stage 3 — pack: fold decoded pairs into contiguous batches and submit
	// them to the double-buffered stream. A batch flushes when full or when
	// no further input is immediately available, so a trickle of pairs never
	// stalls behind a half-built batch.
	stream := x.e.dev.NewStream()
	if x.opts.Accel == BruteForce {
		// SoA kernels have no per-call geometry accounting of their own;
		// credit each launch's wall time to the geometry phase. Host tasks
		// (every other accelerator) self-account inside evaluate.
		stream.OnBatchDone = x.col.geomBatch
	}
	packDone := make(chan struct{})
	go func() {
		defer close(packDone)
		defer stream.CloseSubmit()
		x.packLoop(ctx, ready, stream)
	}()

	// Stage 4 — gather: settle verdicts in submission order, requeueing
	// survivors at their next rung.
	gatherDone := make(chan struct{})
	go func() {
		defer close(gatherDone)
		for {
			tasks, verdicts, ok := stream.Collect()
			if !ok {
				return
			}
			for i := range tasks {
				w := tasks[i].Tag.(*pairWork)
				if ctx.Err() != nil {
					settle()
					continue
				}
				v := verdicts[i]
				if tasks[i].Kind == gpusim.PairMinDist {
					v.D2 = plainDist(v.D2, tasks[i].Upper2)
				}
				requeued, err := x.gatherOne(w, v, gatherSlot)
				if err != nil {
					x.gatherFailure(gatherSlot, w, err, fail)
				}
				if requeued {
					queue.push(w)
				} else {
					settle()
				}
			}
			x.e.dev.PutVerdicts(verdicts)
			tasks = tasks[:0]
			taskBufPool.Put(&tasks)
		}
	}()

	if err := <-feedErr; err != nil {
		fail(err)
	}
	<-packDone
	<-gatherDone
	// All stage goroutines have exited (packDone implies the decode workers
	// finished), so firstErr is stable.
	if firstErr == nil && ctx.Err() != nil {
		// The stages drop pairs silently on cancellation; surface the cause
		// the way runPerTarget does.
		firstErr = context.Cause(ctx)
	}
	return firstErr
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
	x.col.candidates.Add(int64(len(sc.def) + len(sc.ids)))
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
// against the global index with per-worker dedup scratch.
func (x *joinRun) filterIntersect(o *storage.Object, sc *filterScratch) {
	self := x.target.seq == x.source.seq
	x.ftree.SearchIntersect(o.MBB(), func(ent rtree.Entry) bool {
		if self && ent.ID == o.ID {
			return true
		}
		if _, dup := sc.seen[ent.ID]; !dup {
			sc.seen[ent.ID] = struct{}{}
			sc.ids = append(sc.ids, ent.ID)
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
			if self && ent.ID == o.ID {
				continue
			}
			if _, dup := sc.seen[ent.ID]; !dup {
				sc.seen[ent.ID] = struct{}{}
				ids = append(ids, ent.ID)
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

// packLoop drains ready into batches and submits them, counting each pair
// as evaluated at its LOD when it is packed.
func (x *joinRun) packLoop(ctx context.Context, ready <-chan *pairWork, stream *gpusim.Stream) {
	buf := taskBufPool.Get().(*[]gpusim.PairTask)
	batch := (*buf)[:0]
	var batchPairs int64
	aborted := false

	flush := func() {
		if len(batch) == 0 {
			return
		}
		x.col.batches.Add(1)
		x.col.batchPairs.Add(batchPairs)
		batchPairs = 0
		*buf = batch
		stream.Submit(batch)
		buf = taskBufPool.Get().(*[]gpusim.PairTask)
		batch = (*buf)[:0]
	}
	add := func(w *pairWork) {
		if ctx.Err() != nil && !aborted {
			// The query is aborting: stop burning kernels, but keep routing
			// pairs through so the gather stage settles every one of them.
			stream.Abort()
			aborted = true
		}
		x.col.evalPair(x.lods[w.li])
		batchPairs += int64(w.to.mesh.NumFaces()) * int64(w.so.mesh.NumFaces())
		batch = append(batch, x.makeTask(w))
		if len(batch) >= maxBatchTasks {
			flush()
		}
	}

	for {
		if len(batch) == 0 {
			w, ok := <-ready
			if !ok {
				break
			}
			add(w)
			continue
		}
		select {
		case w, ok := <-ready:
			if !ok {
				flush()
				return
			}
			add(w)
		default:
			flush()
		}
	}
	flush()
}

// makeTask turns one decoded pair into its batch task. Under BruteForce the
// pair becomes a flat SoA cross product for the device's batch kernels;
// every other accelerator rides as a host closure around evaluate.
func (x *joinRun) makeTask(w *pairWork) gpusim.PairTask {
	if x.opts.Accel != BruteForce {
		return gpusim.PairTask{Kind: gpusim.PairHost, Tag: w, Fn: func() gpusim.PairVerdict { return x.evaluate(w) }}
	}
	t := gpusim.PairTask{Kind: gpusim.PairIntersect, A: w.to.mesh.SoA(), B: w.so.mesh.SoA(), Tag: w}
	if x.kind == WithinKind {
		t.Kind, t.Upper2, t.Stop2 = gpusim.PairMinDist, bound2(x.upper(w.li)), x.stop2
	}
	return t
}

// evaluate is one decoded pair's predicate at its current LOD, computed on
// the calling goroutine by the configured accelerator: Hit for intersect,
// the plain distance (see minDist; exact unless within dist) in D2 for
// within. An evaluator panic becomes the verdict's error.
func (x *joinRun) evaluate(w *pairWork) (v gpusim.PairVerdict) {
	defer func() {
		if r := recover(); r != nil {
			v = gpusim.PairVerdict{Err: fmt.Errorf("core: evaluator panic on pair (%d,%d): %v", w.t, w.s, r)}
		}
	}()
	if x.kind == IntersectKind {
		return gpusim.PairVerdict{Hit: x.intersects(w.to, w.so)}
	}
	return gpusim.PairVerdict{D2: x.minDist(w.to, w.so, x.upper(w.li), x.stop2)}
}

// plainDist converts an SoA distance verdict — the squared distance, or the
// untouched seed when no face pair beat the bound — to evaluate's form: the
// plain distance, +Inf standing for "greater than the bound".
func plainDist(d2, upper2 float64) float64 {
	if d2 >= upper2 {
		return math.Inf(1)
	}
	return math.Sqrt(d2)
}

// gatherOne settles one verdict (in evaluate's form) on the caller's slot.
// requeued=true means the pair survived this LOD and was advanced to a
// higher rung for the caller to decode next; a non-nil error is an
// evaluation failure for gatherFailure.
func (x *joinRun) gatherOne(w *pairWork, v gpusim.PairVerdict, slot int) (requeued bool, err error) {
	if v.Err != nil {
		return false, v.Err
	}
	defer func() {
		if r := recover(); r != nil {
			requeued = false
			err = fmt.Errorf("core: worker panic on object %d: %v", w.t, r)
		}
	}()
	lod := x.lods[w.li]
	topLI := len(x.lods) - 1

	var hit bool
	if x.kind == WithinKind {
		// A low-LOD distance within range is final (PPVP property 2); one
		// above it is inconclusive below the top LOD, and exact (no stop).
		hit = v.D2 <= x.dist
	} else if hit = v.Hit; !hit {
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
	if x.kind == WithinKind && x.opts.marginSched() && w.li < topLI && v.D2 > x.dist*marginJumpFactor {
		// Margin jump (sched.go): the pair measured over marginJumpFactor·dist
		// — overwhelmingly a reject, which only the top LOD can decide — so
		// it requeues there instead of at the next rung. (From the rung just
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
