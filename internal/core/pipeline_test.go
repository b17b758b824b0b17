package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/leakcheck"
	"repro/internal/mesh"
)

// samePairs asserts two join answers are identical (both are sorted by the
// joins' deterministic output contract).
func samePairs(t *testing.T, name string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d\n got=%v\nwant=%v", name, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// exactDistance is the distance between two stored objects at their top
// LOD, measured by the engine's own decode and distance path.
func exactDistance(t *testing.T, e *Engine, a *Dataset, aid int64, b *Dataset, bid int64, q QueryOptions) float64 {
	t.Helper()
	ec := newEvalCtx(e, q, newCollector(max(a.maxLOD, b.maxLOD), q, time.Now()))
	ao, err := ec.decode(a, aid, a.maxLOD)
	if err != nil {
		t.Fatal(err)
	}
	bo, err := ec.decode(b, bid, b.maxLOD)
	if err != nil {
		t.Fatal(err)
	}
	return ec.minDist(ao, bo, math.Inf(1), 0)
}

// TestPipelineNearThresholdProperty is the randomized near-miss/near-hit
// property: datasets placed so many pair distances land close to the query
// threshold, swept with distances sampled around the true inter-object
// distances. Progressive refinement must make every single accept/reject
// decision the full-resolution (FR) join makes, at full ladders and
// truncated ones.
func TestPipelineNearThresholdProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 3; round++ {
		e := testEngine(t)
		space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(40, 40, 40)}
		ma, mb := datagen.NucleiPair(datagen.NucleiOptions{
			Count: 8, SubdivisionLevel: 1, Seed: int64(1000 + round), Space: space,
		})
		da, err := e.BuildDataset("propA", ma, fastDatasetOptions())
		if err != nil {
			t.Fatal(err)
		}
		db, err := e.BuildDataset("propB", mb, fastDatasetOptions())
		if err != nil {
			t.Fatal(err)
		}

		// Sample true distances so the sweep straddles real accept/reject
		// boundaries: exactly at a pair distance, a hair below, a hair above.
		dists := []float64{0.25, 1, 4}
		for i := 0; i < 3; i++ {
			ta, sb := rng.Int63n(int64(da.Len())), rng.Int63n(int64(db.Len()))
			d := exactDistance(t, e, da, ta, db, sb, QueryOptions{})
			dists = append(dists, d, d*(1-1e-9), d*(1+1e-9))
		}
		ladders := [][]int{nil, {0}, {0, da.MaxLOD()}}
		for _, lods := range ladders {
			for _, dist := range dists {
				want, _, err := e.WithinJoin(context.Background(), da, db, dist, QueryOptions{Paradigm: FR})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := e.WithinJoin(context.Background(), da, db, dist, QueryOptions{LODs: lods})
				if err != nil {
					t.Fatal(err)
				}
				samePairs(t, fmt.Sprintf("round=%d lods=%v dist=%v", round, lods, dist), got, want)
			}
		}
		e.Close()
	}
}

// TestPipelineHammerCancellation is the race-detector hammer: concurrent
// joins with contexts cancelled at staggered points mid-ladder. Every run
// must terminate promptly with either a clean answer or a context error —
// never a deadlock, never a corrupted result.
func TestPipelineHammerCancellation(t *testing.T) {
	leakcheck.Check(t) // before testEngine: the diff must run after Close stops the device
	t.Cleanup(faultinject.Reset)
	e := testEngine(t)
	a, b := buildPair(t, e)

	want, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const runs = 20
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Stagger cancellation across the join's lifetime, from before
			// the first target to after the last pair likely settled.
			delay := time.Duration(i) * 500 * time.Microsecond
			timer := time.AfterFunc(delay, cancel)
			defer timer.Stop()
			got, _, err := e.IntersectJoin(ctx, a, b, QueryOptions{})
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					errs[i] = err
				}
				return
			}
			// Completed despite the cancel racing in: the answer must be
			// the full, correct one.
			if len(got) != len(want) {
				errs[i] = fmt.Errorf("run %d: %d pairs, want %d", i, len(got), len(want))
				return
			}
			for j := range got {
				if got[j] != want[j] {
					errs[i] = fmt.Errorf("run %d: pair %d = %v, want %v", i, j, got[j], want[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelineCancelStopsBetweenPairs cancels a one-worker join during the
// first decode miss of a target with several candidates: the join must stop
// before the next pair (or the pair's next rung), not finish the target. It
// runs every join kind under both schedulers. The distance rows keep the
// small spheres' interiors disjoint from the big one, the precondition of
// distance queries; the kNN row asks for all four of them, so one target
// holds every candidate.
func TestPipelineCancelStopsBetweenPairs(t *testing.T) {
	sphere := func(r float64, at geom.Vec3) *mesh.Mesh {
		m := mesh.Icosphere(r, 2)
		m.Translate(at)
		return m
	}
	joins := []struct {
		name string
		at   float64 // distance of the small spheres from the big one's centre
		run  func(e *Engine, ctx context.Context, a, b *Dataset, q QueryOptions) (*Stats, error)
	}{
		{"intersect", 10, func(e *Engine, ctx context.Context, a, b *Dataset, q QueryOptions) (*Stats, error) {
			_, st, err := e.IntersectJoin(ctx, a, b, q)
			return st, err
		}},
		{"within", 14, func(e *Engine, ctx context.Context, a, b *Dataset, q QueryOptions) (*Stats, error) {
			_, st, err := e.WithinJoin(ctx, a, b, 3, q)
			return st, err
		}},
		{"knn", 14, func(e *Engine, ctx context.Context, a, b *Dataset, q QueryOptions) (*Stats, error) {
			q.K = 4
			_, st, err := e.KNNJoin(ctx, a, b, q)
			return st, err
		}},
	}
	for _, j := range joins {
		for _, sched := range []Sched{SchedStatic, SchedMargin} {
			t.Run(fmt.Sprintf("%s/%v", j.name, sched), func(t *testing.T) {
				t.Cleanup(faultinject.Reset)
				e := testEngine(t)
				a, err := e.BuildDataset("cancelA", []*mesh.Mesh{sphere(10, geom.V(0, 0, 0))}, fastDatasetOptions())
				if err != nil {
					t.Fatal(err)
				}
				b, err := e.BuildDataset("cancelB", []*mesh.Mesh{sphere(2, geom.V(j.at, 0, 0)), sphere(2, geom.V(-j.at, 0, 0)),
					sphere(2, geom.V(0, j.at, 0)), sphere(2, geom.V(0, -j.at, 0))}, fastDatasetOptions())
				if err != nil {
					t.Fatal(err)
				}
				e.Cache().Clear()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Times: 1, Hook: func() error { cancel(); return nil }})
				st, err := j.run(e, ctx, a, b, QueryOptions{Workers: 1, Sched: sched})
				var evaluated int64
				for _, n := range st.PairsEvaluated {
					evaluated += n
				}
				if !errors.Is(err, context.Canceled) || evaluated > 1 {
					t.Fatalf("err = %v after %d pair evaluations (per LOD %v); want context.Canceled after at most 1",
						err, evaluated, st.PairsEvaluated)
				}
			})
		}
	}
}

// TestPipelineDegradedObjectsInBatch floods the decode point with transient
// faults while a join runs under Degrade: the join meets the failures pair
// by pair. The soundness contract holds — no invented pairs, and every
// dropped clean pair flagged uncertain. It runs once per accepted Exec
// value; both run the one drive, so the contract must hold under each.
func TestPipelineDegradedObjectsInBatch(t *testing.T) {
	for _, exec := range []Exec{ExecAuto, ExecPerPair} {
		t.Run(exec.String(), func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			e := testEngine(t)
			a, b := buildPair(t, e)

			clean, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{Exec: exec})
			if err != nil {
				t.Fatal(err)
			}
			e.Cache().Clear()

			faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Err: faultinject.ErrInjected, Times: 8})
			got, st, err := e.IntersectJoin(context.Background(), a, b,
				QueryOptions{Exec: exec, OnError: Degrade, ErrorBudget: -1})
			if err != nil {
				t.Fatalf("degrade join failed: %v", err)
			}
			cleanSet := pairSet(clean)
			for _, p := range got {
				if !cleanSet[p] {
					t.Fatalf("degraded join invented pair %v", p)
				}
			}
			gotSet := pairSet(got)
			for _, p := range clean {
				if !gotSet[p] && !uncertainCovers(st, p) {
					t.Fatalf("dropped pair %v not flagged uncertain (uncertain=%v degraded=%v)",
						p, st.Uncertain, st.Degraded)
				}
			}
			if len(st.Degraded) == 0 {
				t.Fatal("faults injected but nothing degraded")
			}
		})
	}
}
