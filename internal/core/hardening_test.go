package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// slowEngine returns an engine with the decode cache disabled so every
// decode passes through the core.decode fault-injection point.
func slowEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(EngineOptions{CacheBytes: -1, Workers: 4})
	t.Cleanup(e.Close)
	return e
}

// armSlowDecodes makes every decode sleep and closes the returned channel
// when the first decode begins, so tests can cancel a join that is
// provably mid-flight.
func armSlowDecodes(delay time.Duration) <-chan struct{} {
	started := make(chan struct{})
	var once sync.Once
	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Hook: func() error {
		once.Do(func() { close(started) })
		time.Sleep(delay)
		return nil
	}})
	return started
}

// TestJoinCancelledMidJoin cancels a context while each join kind is in the
// middle of decoding and asserts the join returns context.Canceled within a
// bounded wall-clock, not after finishing the remaining work.
func TestJoinCancelledMidJoin(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := slowEngine(t)
	// The overlapping pair guarantees refinement work (and thus decodes)
	// for every join kind. Within's disjoint-interior precondition is
	// irrelevant here: the query never completes.
	a, b := buildPair(t, e)

	joins := map[string]func(ctx context.Context) error{
		"intersect": func(ctx context.Context) error {
			_, _, err := e.IntersectJoin(ctx, a, b, QueryOptions{})
			return err
		},
		"within": func(ctx context.Context) error {
			_, _, err := e.WithinJoin(ctx, a, b, 5, QueryOptions{})
			return err
		},
		"knn": func(ctx context.Context) error {
			_, _, err := e.KNNJoin(ctx, a, b, QueryOptions{K: 2})
			return err
		},
	}
	for name, join := range joins {
		t.Run(name, func(t *testing.T) {
			started := armSlowDecodes(3 * time.Millisecond)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				select {
				case <-started:
				case <-time.After(5 * time.Second):
				}
				cancel()
			}()
			t0 := time.Now()
			err := join(ctx)
			elapsed := time.Since(t0)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if elapsed > 2*time.Second {
				t.Fatalf("join took %v after cancellation", elapsed)
			}
		})
	}
}

// TestJoinDeadlineExceeded checks a context deadline surfaces as
// context.DeadlineExceeded instead of running unbounded.
func TestJoinDeadlineExceeded(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := slowEngine(t)
	a, b := buildPair(t, e)
	armSlowDecodes(3 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, _, err := e.IntersectJoin(ctx, a, b, QueryOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("join took %v after deadline", elapsed)
	}
}

// TestWorkerPanicBecomesError forces a panic inside one decode of each join
// kind, a point query and a range query, and asserts it fails only that
// query with an error naming the object; the engine keeps answering.
func TestWorkerPanicBecomesError(t *testing.T) {
	queries := map[string]func(e *Engine, a, b *Dataset) (int, error){
		"intersect": func(e *Engine, a, b *Dataset) (int, error) {
			pairs, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{})
			return len(pairs), err
		},
		"within": func(e *Engine, a, b *Dataset) (int, error) {
			pairs, _, err := e.WithinJoin(context.Background(), a, b, 5, QueryOptions{})
			return len(pairs), err
		},
		"knn": func(e *Engine, a, b *Dataset) (int, error) {
			ns, _, err := e.KNNJoin(context.Background(), a, b, QueryOptions{K: 2})
			return len(ns), err
		},
		"point": func(e *Engine, a, _ *Dataset) (int, error) {
			ids, _, err := e.ContainingObjects(context.Background(), a, a.Tileset.Object(0).MBB().Center(), QueryOptions{})
			return len(ids), err
		},
		// Half of object 0's MBB: the object needs its geometry.
		"range": func(e *Engine, a, _ *Dataset) (int, error) {
			box := a.Tileset.Object(0).MBB()
			box.Max.X = (box.Min.X + box.Max.X) / 2
			ids, _, err := e.RangeQuery(context.Background(), a, box, QueryOptions{})
			return len(ids), err
		},
	}
	for name, query := range queries {
		t.Run(name, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			e := slowEngine(t)
			a, b := buildPair(t, e)

			faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Panic: "decode blew up", Times: 1})
			_, err := query(e, a, b)
			if err == nil {
				t.Fatal("query with injected panic returned nil error")
			}
			for _, want := range []string{"worker panic", "object ", "decode blew up"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("panic not surfaced in error (no %q): %v", want, err)
				}
			}

			// The fault is spent; the same engine must now answer correctly.
			n, err := query(e, a, b)
			if err != nil {
				t.Fatalf("query after recovered panic: %v", err)
			}
			if n == 0 {
				t.Fatal("no answer after recovery")
			}
		})
	}
}

// TestInjectedDecodeError checks an injected (non-panic) decode error also
// aborts the query cleanly.
func TestInjectedDecodeError(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := slowEngine(t)
	a, b := buildPair(t, e)
	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{
		Err: faultinject.ErrInjected, Times: 1,
	})
	_, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}
