// Pipeline fixtures: a function that opens a device stream via NewStream is
// a pipeline driver, and every goroutine literal it launches is a per-batch
// stage. Slice allocations reachable from a stage body are flagged; pooled
// buffers and driver-level (per-query) allocations are not.
package core

import (
	"sort"
	"sync"
)

type stream struct{ submitted int }

func (s *stream) Submit(batch []int) { s.submitted += len(batch) }

type device struct{}

func (d *device) NewStream() *stream { return &stream{} }

var bufPool = sync.Pool{New: func() any { s := make([]int, 0, 8); return &s }}

// Pipelined is the positive fixture: the pack goroutine builds a fresh batch
// slice per iteration instead of recycling one.
func Pipelined(d *device) {
	st := d.NewStream()
	done := make(chan struct{}) // driver-level, and a channel besides: OK
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			batch := make([]int, 0, 8) // want "slice allocation reachable from a pipeline stage goroutine"
			batch = append(batch, i)
			st.Submit(batch)
			st.Submit(stageHelper(i))
			sort.Slice(batch, func(a, b int) bool { return batch[a] < batch[b] }) // want "sort.Slice sorts through reflection and is reachable from a pipeline stage goroutine"
		}
	}()
	<-done
}

// stageHelper is reachable from a stage goroutine, so its allocation is
// per-batch too.
func stageHelper(n int) []int {
	return []int{n} // want "slice literal reachable from a pipeline stage goroutine"
}

// PipelinedPooled is the sanctioned shape: stage buffers recycle through a
// sync.Pool, so steady state allocates nothing per batch.
func PipelinedPooled(d *device) {
	st := d.NewStream()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			bp := bufPool.Get().(*[]int)
			batch := (*bp)[:0]
			batch = append(batch, i)
			st.Submit(batch)
			*bp = batch
			bufPool.Put(bp)
		}
	}()
	<-done
}

// PipelinedFeeder shows the dispatcher exemption: a stage goroutine may run
// the per-query dispatcher without dragging its driver-level allocations
// into the per-batch region; the callback stays a per-pair root via the
// runPerTarget rule.
func PipelinedFeeder(d *device, workers int) {
	st := d.NewStream()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = runPerTarget(workers, func(w int, o int) error {
			return nil
		})
		st.Submit(nil)
	}()
	<-done
}

// background launches a goroutine but opens no stream: not a pipeline
// driver, so the allocation is fine.
func background() {
	go func() {
		buf := make([]int, 8) // no NewStream in the enclosing function: OK
		_ = buf
	}()
}
