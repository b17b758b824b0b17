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
)

// samePairs asserts two join answers are identical (both are sorted by the
// executors' deterministic output contract).
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

// TestPipelineMatchesPerPairAllAccels proves the pipelined drive result-equal
// to the inline (ExecPerPair) drive across every accelerator and both
// paradigms, for intersection and within-distance joins.
func TestPipelineMatchesPerPairAllAccels(t *testing.T) {
	e := testEngine(t)
	a, b := buildPair(t, e)
	da, db := buildDisjointPair(t, e)

	accels := []Accel{BruteForce, AABB, Partition, GPU, PartitionGPU}
	for _, par := range []Paradigm{FPR, FR} {
		for _, ac := range accels {
			name := fmt.Sprintf("%v/%v", par, ac)
			t.Run("intersect/"+name, func(t *testing.T) {
				q := QueryOptions{Paradigm: par, Accel: ac}
				q.Exec = ExecPerPair
				want, _, err := e.IntersectJoin(context.Background(), a, b, q)
				if err != nil {
					t.Fatal(err)
				}
				q.Exec = ExecAuto
				got, st, err := e.IntersectJoin(context.Background(), a, b, q)
				if err != nil {
					t.Fatal(err)
				}
				samePairs(t, name, got, want)
				if st.BatchesDispatched == 0 && st.Candidates > 0 {
					t.Error("pipeline run reported no batches")
				}
			})
			t.Run("within/"+name, func(t *testing.T) {
				q := QueryOptions{Paradigm: par, Accel: ac}
				for _, dist := range []float64{0, 0.5, 2, 8} {
					q.Exec = ExecPerPair
					want, _, err := e.WithinJoin(context.Background(), da, db, dist, q)
					if err != nil {
						t.Fatal(err)
					}
					q.Exec = ExecAuto
					got, _, err := e.WithinJoin(context.Background(), da, db, dist, q)
					if err != nil {
						t.Fatal(err)
					}
					samePairs(t, fmt.Sprintf("%s dist=%v", name, dist), got, want)
				}
			})
		}
	}
}

// TestPipelineMatchesPerPairEveryLOD pins the equivalence at each single-LOD
// ladder: settling early at LOD l through the batch kernels must accept and
// reject exactly the pairs the per-pair evaluator does at that LOD.
func TestPipelineMatchesPerPairEveryLOD(t *testing.T) {
	e := testEngine(t)
	a, b := buildPair(t, e)
	da, db := buildDisjointPair(t, e)
	maxLOD := minInt(a.MaxLOD(), b.MaxLOD())

	for lod := 0; lod <= maxLOD; lod++ {
		q := QueryOptions{LODs: []int{lod}}
		q.Exec = ExecPerPair
		wantI, _, err := e.IntersectJoin(context.Background(), a, b, q)
		if err != nil {
			t.Fatal(err)
		}
		wantW, _, err := e.WithinJoin(context.Background(), da, db, 1.5, q)
		if err != nil {
			t.Fatal(err)
		}
		q.Exec = ExecAuto
		gotI, _, err := e.IntersectJoin(context.Background(), a, b, q)
		if err != nil {
			t.Fatal(err)
		}
		gotW, _, err := e.WithinJoin(context.Background(), da, db, 1.5, q)
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, fmt.Sprintf("intersect lod=%d", lod), gotI, wantI)
		samePairs(t, fmt.Sprintf("within lod=%d", lod), gotW, wantW)
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
// distances. The pipeline and per-pair executors must agree on every single
// accept/reject decision, at full ladders and truncated ones.
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
				q := QueryOptions{LODs: lods}
				q.Exec = ExecPerPair
				want, _, err := e.WithinJoin(context.Background(), da, db, dist, q)
				if err != nil {
					t.Fatal(err)
				}
				q.Exec = ExecAuto
				got, _, err := e.WithinJoin(context.Background(), da, db, dist, q)
				if err != nil {
					t.Fatal(err)
				}
				samePairs(t, fmt.Sprintf("round=%d lods=%v dist=%v", round, lods, dist), got, want)
			}
		}
		e.Close()
	}
}

// TestPipelineBatchCounters checks the batch accounting: the pipelined drive
// reports batches and face pairs, the inline drive reports zero, and every
// batch carries between one and maxBatchTasks of the pairs evaluated.
func TestPipelineBatchCounters(t *testing.T) {
	e := testEngine(t)
	a, b := buildPair(t, e)

	_, stPer, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{Exec: ExecPerPair})
	if err != nil {
		t.Fatal(err)
	}
	if stPer.BatchesDispatched != 0 || stPer.BatchPairs != 0 {
		t.Fatalf("per-pair run reported batches: %d/%d", stPer.BatchesDispatched, stPer.BatchPairs)
	}

	_, st, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{Exec: ExecAuto})
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchesDispatched == 0 {
		t.Fatal("pipeline run dispatched no batches")
	}
	if st.BatchPairs == 0 {
		t.Fatal("pipeline run reported no batch pairs")
	}
	if st.BatchPairs < st.BatchesDispatched {
		t.Fatalf("BatchPairs=%d < BatchesDispatched=%d", st.BatchPairs, st.BatchesDispatched)
	}
	var tasks int64
	for _, n := range st.PairsEvaluated {
		tasks += n
	}
	if tasks < st.BatchesDispatched || tasks > maxBatchTasks*st.BatchesDispatched {
		t.Fatalf("%d pairs evaluated in %d batches of at most %d", tasks, st.BatchesDispatched, maxBatchTasks)
	}
}

// TestPipelineHammerCancellation is the race-detector hammer: concurrent
// pipelined joins with contexts cancelled at random points mid-batch. Every
// run must terminate promptly with either a clean answer or a context error
// — never a deadlock, never a corrupted result.
func TestPipelineHammerCancellation(t *testing.T) {
	leakcheck.Check(t) // before testEngine: the diff must run after Close drains the stages
	t.Cleanup(faultinject.Reset)
	e := testEngine(t)
	a, b := buildPair(t, e)

	want, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{Exec: ExecAuto})
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
			// Stagger cancellation across the pipeline's lifetime, from
			// before the feeder starts to after the gather likely drained.
			delay := time.Duration(i) * 500 * time.Microsecond
			timer := time.AfterFunc(delay, cancel)
			defer timer.Stop()
			got, _, err := e.IntersectJoin(ctx, a, b, QueryOptions{Exec: ExecAuto})
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

// TestPipelineDegradedObjectsInBatch floods the decode point with transient
// faults while a join runs under Degrade, in either drive: pipelined batches
// then mix healthy and failing pairs, and the inline drive meets the same
// failures pair by pair. The soundness contract is the same for both — no
// invented pairs, and every dropped clean pair flagged uncertain.
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
