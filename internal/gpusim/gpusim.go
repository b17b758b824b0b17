// Package gpusim simulates the GPU-based parallelization of the paper's
// §5.1–5.2. The original system packs face pairs into a computation buffer
// on the GPU and evaluates them with one kernel per fixed-size task; this
// package reproduces that execution model with a worker pool standing in
// for the streaming multiprocessors: geometric computations are grouped
// into tasks of a fixed number of face-pair evaluations and completed by
// whichever worker is free.
//
// The simulation exercises the same code path as the real device (split
// into kernels → dispatch → fold the results, with early termination for
// intersection kernels and decided within tasks). The GPU accelerators call
// it once per evaluated pair (Intersects, MinDist2Bounded); EvalPairBatch
// runs several pairs as one launch. A kernel is a strip of whole
// geom.BlockSize-row blocks of A × all of B, at least the batch size in
// face pairs. BenchmarkEvalPairBatch — one batch of 27 unbounded
// nucleus × vessel distance tasks — measured a median 6.6 ms through the
// device against 8.6 ms for the same tasks one after another on the
// calling goroutine at GOMAXPROCS 2, and 6.9 against 11.1 ms at 4, on a
// 2-CPU container. Absolute speedups naturally differ from the 4,352-core
// RTX 2080 Ti used in the paper; the substitution is recorded in DESIGN.md.
package gpusim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// DefaultBatchSize is the least number of face-pair evaluations one kernel
// launch covers.
const DefaultBatchSize = 4096

// Device is a simulated GPU: a pool of kernel workers consuming batched
// face-pair tasks. Create one with New and release it with Close. A Device
// is safe for concurrent use; concurrent launches share the worker pool the
// same way CUDA streams share the device.
type Device struct {
	batchSize int
	tasks     chan func()
	wg        sync.WaitGroup

	// mu guards closed against the sends on tasks (see launch).
	mu     sync.RWMutex
	closed bool

	// statePool recycles EvalPairBatch's per-task scratch.
	statePool sync.Pool
}

// New returns a device with the given number of kernel workers (defaults to
// GOMAXPROCS when workers ≤ 0) and batch size, the least number of face
// pairs one kernel covers (DefaultBatchSize when ≤ 0).
func New(workers, batchSize int) *Device {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	d := &Device{
		batchSize: batchSize,
		tasks:     make(chan func(), workers*4),
	}
	for i := 0; i < workers; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for task := range d.tasks {
				task()
			}
		}()
	}
	return d
}

// Close shuts the worker pool down. Pending tasks complete first; later
// launches run their kernels on the calling goroutine.
func (d *Device) Close() {
	d.mu.Lock()
	closing := !d.closed
	if closing {
		d.closed = true
		close(d.tasks)
	}
	d.mu.Unlock()
	if closing {
		d.wg.Wait()
	}
}

// Intersects evaluates the a×b face-pair cross product on the device and
// reports whether any pair intersects: kernels over strips of a × all of b
// through the block- and box-gated SoA kernel, sharing a hit flag so the
// rest stop once one finds a hit, mirroring the paper's intersection
// operator.
func (d *Device) Intersects(a, b *geom.TriSoA) bool {
	task := PairTask{Kind: PairIntersect, A: a, B: b}
	return d.evalOne(&task).Hit
}

// MinDist2Bounded returns the squared minimum face-pair distance between a
// and b, seeded with upper2 (+Inf when unknown). Kernels share a CAS-min
// running best that starts at the seed; each reads it when it starts and
// hands it to geom.MinDist2BatchRange, which skips every block pair, block
// and pair whose boxes cannot beat it and lets the tri-tri primitive give
// up on the rest as soon as they provably cannot, so a bound close to the
// answer prunes nearly the whole cross product. A result below upper2 and
// above stop2 is exact — the value geom.TriTriDist2 gives for the nearest
// pair, whatever the batch size and the order kernels finish in; when no
// pair beats the bound the seed comes back unchanged, meaning only
// "≥ upper2". Once the best is ≤ stop2 the running kernels stop and the
// rest skip (see geom.MinDist2BatchRange; pass 0 for an exact minimum).
func (d *Device) MinDist2Bounded(a, b *geom.TriSoA, upper2, stop2 float64) float64 {
	task := PairTask{Kind: PairMinDist, A: a, B: b, Upper2: upper2, Stop2: stop2}
	return d.evalOne(&task).D2
}

// atomicFloat is a CAS-min accumulator for non-negative float64 values.
type atomicFloat struct {
	bits atomic.Uint64
}

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *atomicFloat) min(v float64) {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
