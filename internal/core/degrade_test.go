package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/storage"
)

func pairSet(pairs []Pair) map[Pair]bool {
	m := make(map[Pair]bool, len(pairs))
	for _, p := range pairs {
		m[p] = true
	}
	return m
}

// uncertainCovers reports whether the stats mark the pair unsettled, either
// explicitly or through a whole-target wildcard (Source -1).
func uncertainCovers(st *Stats, p Pair) bool {
	for _, u := range st.Uncertain {
		if u == p || (u.Target == p.Target && u.Source == -1) {
			return true
		}
	}
	return false
}

// TestDegradeIntersectSoundness floods the decode point with transient
// errors and asserts the Degrade-policy contract: the query finishes, every
// returned pair is in the clean answer (no false accepts), and every clean
// pair the degraded run dropped is flagged uncertain.
func TestDegradeIntersectSoundness(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := testEngine(t)
	a, b := buildPair(t, e)

	clean, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.Cache().Clear()

	// Enough failures to hurt several objects even after retries.
	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Err: faultinject.ErrInjected, Times: 8})
	got, st, err := e.IntersectJoin(context.Background(), a, b,
		QueryOptions{OnError: Degrade, ErrorBudget: -1})
	if err != nil {
		t.Fatalf("degrade join failed: %v", err)
	}
	cleanSet := pairSet(clean)
	for _, p := range got {
		if !cleanSet[p] {
			t.Fatalf("degraded run invented pair %v", p)
		}
	}
	gotSet := pairSet(got)
	for _, p := range clean {
		if !gotSet[p] && !uncertainCovers(st, p) {
			t.Fatalf("clean pair %v silently missing: not returned, not uncertain (stats: %v)", p, st)
		}
	}
	if len(got) < len(clean) && len(st.Degraded) == 0 {
		t.Fatal("pairs were dropped but Stats.Degraded is empty")
	}
}

// TestDegradeRetryRecoversTransient arms a single transient decode error
// and checks the Degrade retry absorbs it: full results, a recorded retry,
// nothing degraded.
func TestDegradeRetryRecoversTransient(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := testEngine(t)
	a, b := buildPair(t, e)

	clean, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.Cache().Clear()

	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Err: faultinject.ErrInjected, Times: 1})
	got, st, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{OnError: Degrade})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(clean) {
		t.Fatalf("results = %d pairs, want %d (retry should have recovered)", len(got), len(clean))
	}
	if st.DecodeRetries == 0 {
		t.Fatal("no retry recorded")
	}
	if len(st.Degraded) != 0 {
		t.Fatalf("degraded = %+v, want none", st.Degraded)
	}
}

// TestDegradeRetryRecoversPanic is the same contract for a decode panic:
// under Degrade the panic becomes a retryable per-object error instead of
// aborting the query (FailFast keeps the strict panic behavior, covered by
// TestWorkerPanicBecomesError).
func TestDegradeRetryRecoversPanic(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := testEngine(t)
	a, b := buildPair(t, e)

	clean, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.Cache().Clear()

	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Panic: "decode blew up", Times: 1})
	got, st, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{OnError: Degrade})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(clean) {
		t.Fatalf("results = %d pairs, want %d", len(got), len(clean))
	}
	if st.DecodeRetries == 0 {
		t.Fatal("no retry recorded")
	}
}

// TestErrorBudgetAborts checks both sides of the budget: a tiny budget
// aborts a heavily failing Degrade query, an unlimited one rides it out.
func TestErrorBudgetAborts(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := NewEngine(EngineOptions{CacheBytes: 64 << 20, Workers: 4, DecodeRetries: -1})
	t.Cleanup(e.Close)
	a, b := buildPair(t, e)
	e.Cache().Clear()

	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Err: faultinject.ErrInjected})
	_, _, err := e.IntersectJoin(context.Background(), a, b,
		QueryOptions{OnError: Degrade, ErrorBudget: 2})
	if err == nil || !strings.Contains(err.Error(), "error budget") {
		t.Fatalf("err = %v, want error budget exceeded", err)
	}

	// A fresh engine: the first phase's breaker records must not carry over.
	e = NewEngine(EngineOptions{CacheBytes: 64 << 20, Workers: 4, DecodeRetries: -1})
	t.Cleanup(e.Close)
	got, st, err := e.IntersectJoin(context.Background(), a, b,
		QueryOptions{OnError: Degrade, ErrorBudget: -1})
	if err != nil {
		t.Fatalf("unlimited budget still aborted: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("every decode failed yet %d pairs returned", len(got))
	}
	if len(st.Degraded) == 0 {
		t.Fatal("every decode failed yet nothing degraded")
	}
}

// TestFailFastNamesObject asserts the strict policy's error identifies the
// failing object and dataset.
func TestFailFastNamesObject(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := testEngine(t)
	a, b := buildPair(t, e)
	e.Cache().Clear()

	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Err: faultinject.ErrInjected})
	_, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{})
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "decoding object ") || !strings.Contains(err.Error(), "at LOD") {
		t.Fatalf("error does not name the failing object: %v", err)
	}
}

// TestQuarantinedObjectsSkipped trips one target and one source object and
// checks the Degrade answer is exactly the clean answer minus pairs touching
// them, with the skips recorded; FailFast refuses with a named error.
func TestQuarantinedObjectsSkipped(t *testing.T) {
	e := testEngine(t)
	a, b := buildPair(t, e)

	clean, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) == 0 {
		t.Fatal("workload produced no pairs")
	}
	badTarget, badSource := clean[0].Target, clean[len(clean)-1].Source
	e.Quarantine().Trip(blobOf(a, badTarget), "test trip")
	e.Quarantine().Trip(blobOf(b, badSource), "test trip")

	got, st, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{OnError: Degrade})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Pair, 0, len(clean))
	for _, p := range clean {
		if p.Target != badTarget && p.Source != badSource {
			want = append(want, p)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d (clean %d)", len(got), len(want), len(clean))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if st.QuarantineSkips == 0 {
		t.Fatal("no quarantine skips recorded")
	}
	foundTarget, foundSource := false, false
	for _, d := range st.Degraded {
		if d.Dataset == a.Name && d.Object == badTarget {
			foundTarget = true
		}
		if d.Dataset == b.Name && d.Object == badSource {
			foundSource = true
		}
		if !strings.Contains(d.Err, "quarantined") {
			t.Fatalf("degraded entry lacks quarantine reason: %+v", d)
		}
	}
	if !foundTarget || !foundSource {
		t.Fatalf("degraded list misses tripped objects: %+v", st.Degraded)
	}

	// FailFast refuses the quarantined object by name instead of degrading.
	_, _, err = e.IntersectJoin(context.Background(), a, b, QueryOptions{})
	if err == nil || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("fail-fast err = %v, want ErrQuarantined", err)
	}
	if !strings.Contains(err.Error(), "object ") {
		t.Fatalf("fail-fast error does not name the object: %v", err)
	}
}

// TestRepeatFailuresTripQuarantine drives repeated decode failures through
// Degrade queries and checks the circuit breaker opens, after which a clean
// FailFast query still refuses the object (the breaker outlives the fault).
func TestRepeatFailuresTripQuarantine(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := NewEngine(EngineOptions{CacheBytes: 64 << 20, Workers: 4, DecodeRetries: -1})
	t.Cleanup(e.Close)
	a, b := buildPair(t, e)

	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Err: faultinject.ErrInjected})
	for i := 0; i < 4 && e.Quarantine().Len() == 0; i++ {
		e.Cache().Clear()
		if _, _, err := e.IntersectJoin(context.Background(), a, b,
			QueryOptions{OnError: Degrade, ErrorBudget: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Quarantine().Len() == 0 {
		t.Fatal("breaker never tripped despite persistent failures")
	}
	st := e.Quarantine().Stats()
	if st.Trips == 0 || st.Failures == 0 {
		t.Fatalf("quarantine stats = %+v", st)
	}
}

// TestKNNDegradeMarksDisplacedNeighbors trips the clean nearest neighbor of
// a target and checks it disappears from the answer with the relation
// flagged uncertain (its distance lower bound cannot rule it out).
func TestKNNDegradeMarksDisplacedNeighbors(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)

	clean, _, err := e.NNJoin(context.Background(), a, b, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) == 0 {
		t.Fatal("workload produced no neighbors")
	}
	bad := clean[0]
	e.Quarantine().Trip(blobOf(b, bad.Source), "test trip")

	got, st, err := e.NNJoin(context.Background(), a, b, QueryOptions{OnError: Degrade})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range got {
		if n.Target == bad.Target && n.Source == bad.Source {
			t.Fatalf("quarantined neighbor still reported: %+v", n)
		}
	}
	if !uncertainCovers(st, Pair{Target: bad.Target, Source: bad.Source}) {
		t.Fatalf("displaced nearest neighbor not flagged uncertain (uncertain: %v)", st.Uncertain)
	}
}

// TestWithinDegradeSoundness trips a source object and checks the within
// join keeps its certain accepts and flags pairs touching it.
func TestWithinDegradeSoundness(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)
	const dist = 12.0

	clean, _, err := e.WithinJoin(context.Background(), a, b, dist, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) == 0 {
		t.Fatal("workload produced no pairs")
	}
	bad := clean[0].Source
	e.Quarantine().Trip(blobOf(b, bad), "test trip")

	got, st, err := e.WithinJoin(context.Background(), a, b, dist, QueryOptions{OnError: Degrade})
	if err != nil {
		t.Fatal(err)
	}
	gotSet := pairSet(got)
	for _, p := range clean {
		if gotSet[p] {
			continue
		}
		// Dropped pairs must reference the tripped object and be flagged —
		// unless they were MBB-definite accepts, which never decode and so
		// survive even a tripped breaker.
		if p.Source != bad {
			t.Fatalf("pair %v lost without involving the tripped object", p)
		}
		if !uncertainCovers(st, p) {
			t.Fatalf("dropped pair %v not flagged uncertain", p)
		}
	}
	for _, p := range got {
		if !pairSet(clean)[p] {
			t.Fatalf("degraded run invented pair %v", p)
		}
	}
}

// TestRangeQueryDegradeUncertainIDs trips an object that needs geometry to
// resolve a range query and checks it lands in UncertainIDs.
// TestRangeQueryDegradeUncertainIDs: a quarantined candidate of a point or
// a range query under Degrade is reported in UncertainIDs, never as a
// result.
func TestRangeQueryDegradeUncertainIDs(t *testing.T) {
	probes := map[string]func(e *Engine, d *Dataset, q QueryOptions) ([]int64, *Stats, error){
		// A box covering half of object 0's MBB: the object is a candidate
		// but not an MBB-definite accept, so resolving it requires its
		// geometry.
		"range": func(e *Engine, d *Dataset, q QueryOptions) ([]int64, *Stats, error) {
			box := d.Tileset.Object(0).MBB()
			box.Max.X = (box.Min.X + box.Max.X) / 2
			return e.RangeQuery(context.Background(), d, box, q)
		},
		"point": func(e *Engine, d *Dataset, q QueryOptions) ([]int64, *Stats, error) {
			return e.ContainingObjects(context.Background(), d, d.Tileset.Object(0).MBB().Center(), q)
		},
	}
	for name, probe := range probes {
		t.Run(name, func(t *testing.T) {
			e := testEngine(t)
			a, _ := buildPair(t, e)
			e.Quarantine().Trip(blobOf(a, 0), "test trip")
			out, st, err := probe(e, a, QueryOptions{OnError: Degrade})
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(out, 0) {
				t.Fatal("quarantined object reported as a certain result")
			}
			if !slices.Contains(st.UncertainIDs, 0) {
				t.Fatalf("object 0 not in UncertainIDs (%v)", st.UncertainIDs)
			}
		})
	}
}

// TestRunPerTargetOnErr unit-tests the degraded dispatch: a swallowing hook
// keeps the run alive past failures, a propagating hook aborts it.
func TestRunPerTargetOnErr(t *testing.T) {
	e := testEngine(t)
	a, _ := buildPair(t, e)

	var mu sync.Mutex
	processed := map[int64]bool{}
	var hookErrs []error
	err := runPerTarget(context.Background(), a, 4, func(_ context.Context, w int, o *storage.Object) error {
		if o.ID%3 == 0 {
			return errors.New("boom")
		}
		mu.Lock()
		processed[o.ID] = true
		mu.Unlock()
		return nil
	}, func(w int, o *storage.Object, err error) error {
		mu.Lock()
		hookErrs = append(hookErrs, err)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("swallowed errors still aborted: %v", err)
	}
	if len(hookErrs) == 0 {
		t.Fatal("hook never saw the failures")
	}
	for id := int64(0); id < int64(a.Len()); id++ {
		if id%3 != 0 && !processed[id] {
			t.Fatalf("object %d was not processed after sibling failures", id)
		}
	}

	err = runPerTarget(context.Background(), a, 4, func(_ context.Context, w int, o *storage.Object) error {
		return errors.New("boom")
	}, func(w int, o *storage.Object, err error) error {
		return err
	})
	if err == nil {
		t.Fatal("propagating hook did not abort the run")
	}
}

// TestResultSinkOrderingAndDuplicates is the regression test for the
// slices.SortFunc merge: pairs from different workers merge into one
// deterministic target-then-source order, duplicates preserved.
func TestResultSinkOrderingAndDuplicates(t *testing.T) {
	s := newResultSink(3, ComparePairs)
	s.add(2, Pair{Target: 5, Source: 1})
	s.add(0, Pair{Target: 1, Source: 9})
	s.add(1, Pair{Target: 1, Source: 2})
	s.add(0, Pair{Target: 5, Source: 1}) // duplicate across workers
	s.add(2, Pair{Target: 0, Source: 7})
	s.add(1, Pair{Target: 1, Source: 2}) // duplicate across workers

	want := []Pair{{0, 7}, {1, 2}, {1, 2}, {1, 9}, {5, 1}, {5, 1}}
	got := s.sorted()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted()[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}
