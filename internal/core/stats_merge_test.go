package core

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// mergeFixture returns three deliberately ragged Stats values: different
// LOD-slice lengths (including nil), nonempty degradation lists, and
// distinct counter values, so a merge that drops or truncates anything
// shows up.
func mergeFixture() (*Stats, *Stats, *Stats) {
	a := &Stats{
		Elapsed: 5 * time.Millisecond, FilterTime: time.Millisecond,
		DecodeTime: 2 * time.Millisecond, GeomTime: 3 * time.Millisecond,
		Candidates: 10, Results: 4, Decodes: 7, CacheHits: 2,
		WarmStarts: 1, RoundsApplied: 12, RoundsSkipped: 6,
		QuarantineSkips: 1, DecodeRetries: 2, DecodeFailures: 1,
		BatchesDispatched: 3, BatchPairs: 4, LODsSkippedByMargin: 5,
		BoundsDecisive: 6, AccelBuilds: 7, AccelReuses: 8,
		PairsEvaluated: []int64{5, 3, 1}, PairsPruned: []int64{2, 2, 1},
		Uncertain:    []Pair{{Target: 1, Source: 2}},
		UncertainIDs: []int64{9},
		Degraded:     []ObjectError{{Dataset: "a", Object: 3, Err: "boom"}},
	}
	// b is an "early abort" shape: nil LOD slices, zero phase times.
	b := &Stats{
		Elapsed: 9 * time.Millisecond, Candidates: 1, Decodes: 1,
	}
	c := &Stats{
		Elapsed: time.Millisecond, FilterTime: 4 * time.Millisecond,
		Candidates: 2, Results: 1, CacheHits: 5,
		PairsEvaluated: []int64{1}, PairsPruned: []int64{1},
		UncertainIDs: []int64{4, 2},
	}
	return a, b, c
}

// normalize sorts the order-free lists so merge results assembled in
// different orders compare equal.
func normalize(s *Stats) *Stats {
	slices.SortFunc(s.Uncertain, ComparePairs)
	slices.Sort(s.UncertainIDs)
	sort.Slice(s.Degraded, func(i, j int) bool {
		if s.Degraded[i].Dataset != s.Degraded[j].Dataset {
			return s.Degraded[i].Dataset < s.Degraded[j].Dataset
		}
		return s.Degraded[i].Object < s.Degraded[j].Object
	})
	sort.Slice(s.Shards, func(i, j int) bool { return s.Shards[i].Shard < s.Shards[j].Shard })
	return s
}

func cloneStats(s *Stats) *Stats {
	c := *s
	c.PairsEvaluated = slices.Clone(s.PairsEvaluated)
	c.PairsPruned = slices.Clone(s.PairsPruned)
	c.Uncertain = slices.Clone(s.Uncertain)
	c.UncertainIDs = slices.Clone(s.UncertainIDs)
	c.Degraded = slices.Clone(s.Degraded)
	c.Trace = slices.Clone(s.Trace)
	c.Shards = slices.Clone(s.Shards)
	return &c
}

func TestStatsMergeCommutative(t *testing.T) {
	a, b, c := mergeFixture()
	for _, pair := range [][2]*Stats{{a, b}, {a, c}, {b, c}} {
		x := cloneStats(pair[0])
		x.Merge(cloneStats(pair[1]))
		y := cloneStats(pair[1])
		y.Merge(cloneStats(pair[0]))
		if !reflect.DeepEqual(normalize(x), normalize(y)) {
			t.Errorf("merge not commutative:\n a·b = %+v\n b·a = %+v", x, y)
		}
	}
}

func TestStatsMergeAssociative(t *testing.T) {
	a, b, c := mergeFixture()

	left := cloneStats(a)
	left.Merge(cloneStats(b))
	left.Merge(cloneStats(c))

	bc := cloneStats(b)
	bc.Merge(cloneStats(c))
	right := cloneStats(a)
	right.Merge(bc)

	if !reflect.DeepEqual(normalize(left), normalize(right)) {
		t.Fatalf("merge not associative:\n (a·b)·c = %+v\n a·(b·c) = %+v", left, right)
	}
}

// TestStatsMergeNilAndShortSlices is the regression test for the shard
// merge edge: folding in a nil Stats (a shard that died before answering)
// or one with shorter/absent LOD slices (an early abort) must not drop the
// surviving shard's phase times, counters, or LOD cells.
func TestStatsMergeNilAndShortSlices(t *testing.T) {
	a, b, _ := mergeFixture()
	merged := cloneStats(a)
	merged.Merge(nil) // dead shard: no-op
	merged.Merge(cloneStats(b))
	if merged.FilterTime != a.FilterTime || merged.DecodeTime != a.DecodeTime || merged.GeomTime != a.GeomTime {
		t.Fatalf("phase times dropped: %+v", merged)
	}
	if got := merged.Candidates; got != a.Candidates+b.Candidates {
		t.Fatalf("candidates = %d, want %d", got, a.Candidates+b.Candidates)
	}
	if !slices.Equal(merged.PairsEvaluated, a.PairsEvaluated) {
		t.Fatalf("LOD slice truncated by nil-slice merge: %v", merged.PairsEvaluated)
	}
	// Now the other direction: the accumulator starts as the early abort.
	merged = cloneStats(b)
	merged.Merge(cloneStats(a))
	if !slices.Equal(merged.PairsEvaluated, a.PairsEvaluated) {
		t.Fatalf("LOD slice not grown: %v", merged.PairsEvaluated)
	}
	if merged.Elapsed != b.Elapsed {
		t.Fatalf("elapsed = %v, want max %v", merged.Elapsed, b.Elapsed)
	}
	// A nil receiver must also be safe (shard responses can be absent).
	var nilStats *Stats
	nilStats.Merge(a)
}

// TestStatsMergeSums checks that every counter but Elapsed is the exact sum.
func TestStatsMergeSums(t *testing.T) {
	a, b, c := mergeFixture()
	merged := &Stats{}
	for _, s := range []*Stats{a, b, c} {
		merged.Merge(s)
	}
	for _, r := range Counters {
		if got, want := *r.Field(merged), *r.Field(a)+*r.Field(b)+*r.Field(c); got != want && r.Name != "elapsed_ms" {
			t.Errorf("%s = %d, want %d", r.Name, got, want)
		}
	}
	if got, want := len(merged.UncertainIDs), 3; got != want {
		t.Fatalf("uncertainIDs = %d entries, want %d", got, want)
	}
	if got, want := merged.PairsEvaluated[0], a.PairsEvaluated[0]+c.PairsEvaluated[0]; got != want {
		t.Fatalf("pairsEvaluated[0] = %d, want %d", got, want)
	}
	if got, want := merged.Elapsed, 9*time.Millisecond; got != want {
		t.Fatalf("elapsed = %v, want max %v", got, want)
	}
}
