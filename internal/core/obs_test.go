package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// TestConcurrentQueriesExactAttribution is the regression test for the
// cross-query stats bleed: N queries overlap on one engine, and every
// query's cache counters must sum exactly to the cache-wide delta — under
// the old snapshot-diff scheme each query instead saw a slice of everyone
// else's activity. Run under -race this also proves the attribution path is
// data-race free.
func TestConcurrentQueriesExactAttribution(t *testing.T) {
	e := testEngine(t)
	// Near-miss pairs ride the LOD ladder, so the concurrent queries mix
	// cold decodes, warm starts, and plain hits on the shared cache.
	a, b := buildNearMissPair(t, e, []float64{7.7, 8.5, 7.7, 8.5})
	before := e.Cache().Stats()

	const n = 8
	stats := make([]*Stats, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := QueryOptions{Paradigm: FPR}
			if i%2 == 1 {
				q.Accel = AABB
			}
			_, st, err := e.IntersectJoin(context.Background(), a, b, q)
			if err != nil {
				t.Error(err)
				return
			}
			stats[i] = st
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	delta := e.Cache().Stats().Sub(before)
	var hits, misses, warm, applied, skipped, failures int64
	for _, st := range stats {
		hits += st.CacheHits
		misses += st.Decodes
		warm += st.WarmStarts
		applied += st.RoundsApplied
		skipped += st.RoundsSkipped
		failures += st.DecodeFailures
	}
	if warm != delta.WarmStarts {
		t.Errorf("sum of per-query WarmStarts = %d, cache delta = %d", warm, delta.WarmStarts)
	}
	if applied != delta.RoundsApplied {
		t.Errorf("sum of per-query RoundsApplied = %d, cache delta = %d", applied, delta.RoundsApplied)
	}
	if skipped != delta.RoundsSkipped {
		t.Errorf("sum of per-query RoundsSkipped = %d, cache delta = %d", skipped, delta.RoundsSkipped)
	}
	if failures != delta.DecodeFailures || failures != 0 {
		t.Errorf("DecodeFailures sum = %d, cache delta = %d, want 0", failures, delta.DecodeFailures)
	}
	if hits != delta.Hits {
		t.Errorf("sum of per-query CacheHits = %d, cache delta = %d", hits, delta.Hits)
	}
	if misses != delta.Misses {
		t.Errorf("sum of per-query Decodes = %d, cache Misses delta = %d", misses, delta.Misses)
	}
	// The workload must actually exercise the reuse paths or the equalities
	// above prove nothing.
	if delta.WarmStarts == 0 || delta.Hits == 0 {
		t.Errorf("workload too weak: delta = %+v", delta)
	}
}

// TestConcurrentProfilingDoesNotPerturbAttribution pins the SampleCuboid
// aliasing contract (see profile.go): the profiling sample is a shallow view
// sharing the original's objects, indexes, and seq, so its decodes land in
// the same cache entries live queries use — and per-query attribution must
// still be exact. ProfileLODs runs concurrently with live joins and every
// participant's cache counters (the profiling runs' included) must sum
// exactly to the cache-wide delta.
func TestConcurrentProfilingDoesNotPerturbAttribution(t *testing.T) {
	e := testEngine(t)
	a, b := buildNearMissPair(t, e, []float64{7.7, 8.5, 7.7, 8.5})
	before := e.Cache().Stats()

	const n = 8
	stats := make([]*Stats, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 1 {
				// Odd slots profile: same engine, same cache entries via the
				// shallow sample view.
				_, st, err := e.ProfileLODs(context.Background(), a, b, IntersectKind, 0, QueryOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				stats[i] = st
				return
			}
			_, st, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{Paradigm: FPR})
			if err != nil {
				t.Error(err)
				return
			}
			stats[i] = st
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	delta := e.Cache().Stats().Sub(before)
	var hits, misses, warm, applied, skipped int64
	for _, st := range stats {
		hits += st.CacheHits
		misses += st.Decodes
		warm += st.WarmStarts
		applied += st.RoundsApplied
		skipped += st.RoundsSkipped
	}
	if hits != delta.Hits {
		t.Errorf("sum of per-run CacheHits = %d, cache delta = %d", hits, delta.Hits)
	}
	if misses != delta.Misses {
		t.Errorf("sum of per-run Decodes = %d, cache Misses delta = %d", misses, delta.Misses)
	}
	if warm != delta.WarmStarts {
		t.Errorf("sum of per-run WarmStarts = %d, cache delta = %d", warm, delta.WarmStarts)
	}
	if applied != delta.RoundsApplied {
		t.Errorf("sum of per-run RoundsApplied = %d, cache delta = %d", applied, delta.RoundsApplied)
	}
	if skipped != delta.RoundsSkipped {
		t.Errorf("sum of per-run RoundsSkipped = %d, cache delta = %d", skipped, delta.RoundsSkipped)
	}
	// Profiling must actually share cache entries with the live queries, or
	// the exactness above proves nothing about the aliasing.
	if delta.Hits == 0 {
		t.Errorf("workload too weak: no shared cache activity, delta = %+v", delta)
	}
}

// TestStatsOnCancellation: a query cancelled mid-flight must still hand back
// its statistics — phase times and exact cache attribution up to the point
// it stopped — alongside the error.
func TestStatsOnCancellation(t *testing.T) {
	e := testEngine(t)
	a, b := buildPair(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Hook: func() error {
		// Cancel during the first decode: the workers notice before their
		// next object and the query aborts with context.Canceled.
		once.Do(cancel)
		return nil
	}})
	defer faultinject.Reset()

	_, st, err := e.IntersectJoin(ctx, a, b, QueryOptions{Paradigm: FPR})
	if err == nil {
		t.Fatal("cancelled query returned no error")
	}
	if st == nil {
		t.Fatal("cancelled query returned nil stats")
	}
	if st.Elapsed <= 0 {
		t.Error("cancelled query reported no elapsed time")
	}
	if st.Decodes == 0 {
		t.Error("cancelled query reported no decodes; the hook fired inside one")
	}
	if len(st.PairsEvaluated) == 0 {
		t.Error("cancelled query lost its LOD table")
	}
}

// TestStatsOnCancellationSingleThreaded covers the probe ladder of the
// point and range queries, which runs on the calling goroutine rather than
// under runPerTarget and observes the deadline itself.
func TestStatsOnCancellationSingleThreaded(t *testing.T) {
	e := testEngine(t)
	a, _ := buildPair(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mbb := a.Tileset.Object(0).MBB()
	// Half of object 0's MBB: the object needs its geometry, so the ladder
	// runs past the filter.
	half := mbb
	half.Max.X = (mbb.Min.X + mbb.Max.X) / 2
	probes := map[string]func() (*Stats, error){
		"point": func() (*Stats, error) {
			_, st, err := e.ContainingObjects(ctx, a, mbb.Center(), QueryOptions{Paradigm: FPR})
			return st, err
		},
		"range": func() (*Stats, error) {
			_, st, err := e.RangeQuery(ctx, a, half, QueryOptions{Paradigm: FPR})
			return st, err
		},
	}
	for name, probe := range probes {
		st, err := probe()
		if err == nil {
			t.Fatalf("%s: cancelled query returned no error", name)
		}
		if st == nil {
			t.Fatalf("%s: cancelled query returned nil stats", name)
		}
		if st.FilterTime <= 0 {
			t.Errorf("%s: filter phase ran before the deadline check but was not reported", name)
		}
	}
}

// TestStatsStringDecodeFailures: the one-line summary must surface non-zero
// decode failures (it used to print the degraded clause without them).
func TestStatsStringDecodeFailures(t *testing.T) {
	s := &Stats{DecodeFailures: 3}
	if got := s.String(); !strings.Contains(got, "decode_failures=3") {
		t.Errorf("String() omits decode failures: %q", got)
	}
	clean := &Stats{}
	if got := clean.String(); strings.Contains(got, "decode_failures") {
		t.Errorf("clean query should not print the degraded clause: %q", got)
	}
}

// TestQueryTrace checks the opt-in span recording: a traced query returns an
// aggregated timeline whose counts reconcile with the scalar statistics,
// and an untraced query pays nothing and returns none.
func TestQueryTrace(t *testing.T) {
	e := testEngine(t)
	a, b := buildPair(t, e)

	_, st, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{Paradigm: FPR, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trace) == 0 {
		t.Fatal("traced query returned no events")
	}
	byName := map[string]int64{}
	sawFilterNoLOD := false
	for _, ev := range st.Trace {
		byName[ev.Name] += ev.Count
		if ev.Name == "filter" && ev.LOD == obs.NoLOD {
			sawFilterNoLOD = true
		}
		if ev.LastUS < ev.FirstUS {
			t.Errorf("event %q lod=%d has last < first: %+v", ev.Name, ev.LOD, ev)
		}
	}
	if !sawFilterNoLOD {
		t.Error("no filter event with LOD=NoLOD")
	}
	var evaluated, settled int64
	for i := range st.PairsEvaluated {
		evaluated += st.PairsEvaluated[i]
		settled += st.PairsPruned[i]
	}
	if byName["evaluate"] != evaluated {
		t.Errorf("trace evaluate count = %d, stats say %d", byName["evaluate"], evaluated)
	}
	if byName["settle"] != settled {
		t.Errorf("trace settle count = %d, stats say %d", byName["settle"], settled)
	}
	if byName["decode"] != st.Decodes {
		t.Errorf("trace decode count = %d, stats say %d", byName["decode"], st.Decodes)
	}
	if byName["cache_hit"] != st.CacheHits {
		t.Errorf("trace cache_hit count = %d, stats say %d", byName["cache_hit"], st.CacheHits)
	}
	if byName["geom"] == 0 {
		t.Error("no geometry spans recorded")
	}

	_, st2, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{Paradigm: FPR})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Trace != nil {
		t.Errorf("untraced query returned %d events", len(st2.Trace))
	}
}
