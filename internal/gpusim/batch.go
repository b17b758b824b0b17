package gpusim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// PairKind selects the kernel a PairTask runs.
type PairKind uint8

const (
	// PairIntersect asks "does any face of A intersect any face of B",
	// with box-gated pairs and early termination on the first hit.
	PairIntersect PairKind = iota
	// PairMinDist asks for the squared minimum pair distance, seeded with
	// Upper2 (a verdict D2 ≥ Upper2 only means "no pair beat the bound").
	PairMinDist
)

// PairTask is one unit of refinement work in a batch: a full A×B face-pair
// cross product in SoA form. A PairMinDist task's kernels stop once their
// shared best is ≤ Stop2, with the contract of geom.MinDist2BatchRange; the
// zero value asks for the exact minimum.
type PairTask struct {
	Kind          PairKind
	A, B          *geom.TriSoA
	Upper2, Stop2 float64
}

// PairVerdict is the outcome of one PairTask. Err is non-nil only when a
// kernel panicked; the geometry fields are then meaningless.
type PairVerdict struct {
	Hit bool
	D2  float64
	Err error
}

// taskState is the shared accumulator kernels of one task fold into.
type taskState struct {
	hit  atomic.Bool
	best atomicFloat
	err  atomic.Pointer[error]
}

func (st *taskState) setErr(err error) {
	if err != nil {
		st.err.CompareAndSwap(nil, &err)
	}
}

// EvalPairBatch evaluates tasks on the device, writing verdicts[i] for
// tasks[i]. Each SoA task's cross product is split into kernel launches,
// strips of whole blocks of A × all of B (see stripRows); kernels of one
// task share a hit flag (intersection early-exit) and a CAS-min accumulator
// (distance). A nil abort pointer disables cancellation; when abort becomes
// true, kernels not yet started return immediately and the corresponding
// verdicts are unspecified. Kernel panics are captured into the verdict's
// Err instead of killing device workers. verdicts must have len(tasks)
// elements.
func (d *Device) EvalPairBatch(tasks []PairTask, verdicts []PairVerdict, abort *atomic.Bool) {
	if len(verdicts) != len(tasks) {
		panic("gpusim: verdicts length does not match tasks")
	}
	if len(tasks) == 0 {
		return
	}
	states := d.getStates(len(tasks))
	defer d.putStates(states)

	var wg sync.WaitGroup
	for ti := range tasks {
		d.launch(&tasks[ti], &states[ti], &wg, abort)
	}
	wg.Wait()

	for ti := range tasks {
		verdicts[ti] = states[ti].verdict()
	}
}

// evalOne evaluates a single task outside any batch: the entry point of the
// per-pair device calls (Intersects, MinDist2Bounded), which the GPU
// accelerators issue while refining a pair. It runs the same kernels as a
// batched task.
func (d *Device) evalOne(t *PairTask) PairVerdict {
	var st taskState
	var wg sync.WaitGroup
	d.launch(t, &st, &wg, nil)
	wg.Wait()
	v := st.verdict()
	if v.Err != nil {
		// Only a kernel panic lands here; with no verdict channel to carry
		// it, resume it on the caller like an inline evaluation would.
		panic(v.Err)
	}
	return v
}

// launch resets st for t and starts t's kernels, registering each with wg.
// On a closed device the kernels run on the calling goroutine instead: the
// same functions, so the same answers. The closed check and the sends hold
// d.mu for reading, which Close takes for writing before it closes d.tasks.
func (d *Device) launch(t *PairTask, st *taskState, wg *sync.WaitGroup, abort *atomic.Bool) {
	// Reset the (possibly pooled) state: distance kernels are seeded with
	// the task's bound so they can prune against it from the first pair on.
	st.hit.Store(false)
	st.err.Store(nil)
	seed := math.Inf(1)
	if t.Kind == PairMinDist && t.Upper2 < seed {
		seed = t.Upper2
	}
	st.best.bits.Store(math.Float64bits(seed))

	an, bn := t.A.Len(), t.B.Len()
	if bn == 0 {
		return
	}
	rows := d.stripRows(bn)
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i := 0; i < an; i += rows {
		start, end := i*bn, min(i+rows, an)*bn
		wg.Add(1)
		kernel := func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					st.setErr(fmt.Errorf("gpusim: kernel panic: %v", r))
				}
			}()
			if abort != nil && abort.Load() {
				return
			}
			if t.Kind == PairIntersect {
				if !st.hit.Load() && geom.IntersectsBatchRange(t.A, t.B, start, end) {
					st.hit.Store(true)
				}
				return
			}
			// A kernel that starts after the task is decided skips, as an
			// intersect kernel does after a hit.
			if best := st.best.load(); best > t.Stop2 {
				st.best.min(geom.MinDist2BatchRange(t.A, t.B, start, end, best, t.Stop2))
			}
		}
		if d.closed {
			kernel()
		} else {
			d.tasks <- kernel
		}
	}
}

// stripRows returns how many rows of A one kernel covers against a B of
// bn > 0 faces: the fewest whole blocks of geom.BlockSize rows that span at
// least batchSize face pairs. A kernel then gates block against block over
// its whole strip (geom.MinDist2BatchRange) instead of row by row.
func (d *Device) stripRows(bn int) int {
	rows := (d.batchSize + bn - 1) / bn
	return (rows + geom.BlockSize - 1) &^ (geom.BlockSize - 1)
}

// verdict reads the task's folded outcome once its kernels have finished.
func (st *taskState) verdict() PairVerdict {
	if ep := st.err.Load(); ep != nil {
		return PairVerdict{Err: *ep}
	}
	return PairVerdict{Hit: st.hit.Load(), D2: st.best.load()}
}

// getStates returns a taskState slice of length n from the pool. States are
// reset per task inside EvalPairBatch, so no zeroing happens here.
func (d *Device) getStates(n int) []taskState {
	if p, _ := d.statePool.Get().(*[]taskState); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]taskState, n)
}

func (d *Device) putStates(s []taskState) {
	d.statePool.Put(&s)
}
