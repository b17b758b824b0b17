package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"

	"repro/internal/storage"
)

// runPerTarget executes fn for every object of the target dataset,
// parallelized over cuboids so that objects sharing a cuboid are processed
// together — the batching of §5.3 that gives the decode cache its spatial
// locality.
//
// fn receives the worker slot index w in [0, workers): at any instant at
// most one goroutine runs with a given w, so callbacks may use w to index
// per-worker scratch state (filter buffers, result shards) without locking.
//
// The first error (or a cancellation of ctx) cancels a derived context, so
// the spawning loop and every worker abort promptly. fn receives that
// context: an fn that loops over many pairs checks it between them and
// returns context.Cause, which is the first error when another worker's
// failure cancelled it. A panic inside fn — a bad geometry, a corrupt blob
// tripping an unchecked path — is recovered per object and surfaces as an
// error for this query instead of crashing the process.
//
// onErr, when non-nil, intercepts each per-object error (including
// recovered panics) before it aborts the run: returning nil swallows the
// failure and the worker continues with the next object (degraded-mode
// execution); returning an error — the same or another — aborts as before.
// Nil onErr preserves strict fail-fast semantics.
func runPerTarget(ctx context.Context, target *Dataset, workers int, fn func(ctx context.Context, w int, o *storage.Object) error, onErr func(w int, o *storage.Object, err error) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	cuboids := make([]int, 0, len(target.Tileset.Tiles))
	for c := range target.Tileset.Tiles {
		cuboids = append(cuboids, c)
	}
	slices.Sort(cuboids)

	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel(err)
		})
	}
	// slots doubles as the concurrency semaphore and the worker-index pool:
	// a goroutine owns index w for the duration of its cuboid batch.
	slots := make(chan int, workers)
	for i := 0; i < workers; i++ {
		// The channel was just made with capacity workers, so these
		// workers sends cannot block.
		slots <- i
	}
spawn:
	for _, c := range cuboids {
		objs := target.Tileset.Tiles[c]
		var w int
		select {
		case w = <-slots:
		case <-ctx.Done():
			break spawn
		}
		wg.Add(1)
		go func(w int, objs []*storage.Object) {
			defer wg.Done()
			// At most workers slots are ever outstanding and the channel's
			// capacity is workers, so returning the slot cannot block.
			defer func() { slots <- w }()
			for _, o := range objs {
				if ctx.Err() != nil {
					return
				}
				if err := callRecovered(ctx, fn, w, o); err != nil {
					if onErr != nil {
						err = onErr(w, o, err)
					}
					if err != nil {
						fail(err)
						return
					}
				}
			}
		}(w, objs)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// callRecovered runs fn(ctx, w, o), converting a panic into an error so one
// bad object fails the query, not the process.
func callRecovered(ctx context.Context, fn func(ctx context.Context, w int, o *storage.Object) error, w int, o *storage.Object) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: worker panic on object %d: %v\n%s", o.ID, r, debug.Stack())
		}
	}()
	return fn(ctx, w, o)
}

// resultSink collects a join's answers (Pair or Neighbor) from concurrent
// workers into per-worker buffers (no locking on the hot path) and merges
// them in the deterministic order of cmp.
type resultSink[T any] struct {
	buf [][]T
	cmp func(a, b T) int
}

func newResultSink[T any](workers int, cmp func(a, b T) int) *resultSink[T] {
	return &resultSink[T]{buf: make([][]T, max(workers, 1)), cmp: cmp}
}

// add appends v to worker w's buffer. Safe without locking because
// runPerTarget guarantees slot exclusivity.
func (r *resultSink[T]) add(w int, v T) {
	r.buf[w] = append(r.buf[w], v)
}

func (r *resultSink[T]) sorted() []T {
	n := 0
	for _, b := range r.buf {
		n += len(b)
	}
	out := make([]T, 0, n)
	for _, b := range r.buf {
		out = append(out, b...)
	}
	slices.SortFunc(out, r.cmp)
	return out
}

// ComparePairs orders pairs by target then source — the deterministic
// result order every join guarantees regardless of worker interleaving.
func ComparePairs(a, b Pair) int {
	if c := cmp.Compare(a.Target, b.Target); c != 0 {
		return c
	}
	return cmp.Compare(a.Source, b.Source)
}
