package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Stats describes one join execution: the wall-clock time, the per-phase
// breakdown the paper profiles in Fig. 10 (filtering, decompression,
// geometric computation), and the per-LOD evaluation/pruning counts behind
// Fig. 12. Phase times are summed across workers, so they represent CPU
// time and can exceed Elapsed. Every int64 and time.Duration field is a
// counter with one row in Counters.
type Stats struct {
	Elapsed    time.Duration
	FilterTime time.Duration
	DecodeTime time.Duration
	GeomTime   time.Duration

	// Candidates counts object pairs produced by the filtering step;
	// Results counts pairs in the final answer.
	Candidates int64
	Results    int64

	// Decodes counts actual (cache-missing) decode operations; CacheHits
	// counts decode requests served from the decode cache during this query.
	Decodes   int64
	CacheHits int64

	// WarmStarts counts cache misses served from decoded geometry the cache
	// held (an object's warm point or a resident lower LOD) instead of
	// replaying from LOD 0; RoundsApplied counts decode rounds actually
	// replayed during this query and RoundsSkipped the rounds warm starts
	// did not replay. The cold-path cost would have been
	// RoundsApplied + RoundsSkipped. Attribution is exact: the engine
	// passes a per-query counter set into every cache call and the cache
	// increments it at the same points it moves its own shard counters, so
	// concurrent queries on one engine never bleed into each other's
	// numbers.
	WarmStarts    int64
	RoundsApplied int64
	RoundsSkipped int64

	// PairsEvaluated[l] and PairsPruned[l] count the candidate pairs that
	// were evaluated at LOD l and the ones settled (accepted or rejected
	// for good) at LOD l. Index len-1 is the highest LOD.
	PairsEvaluated []int64
	PairsPruned    []int64

	// Margin-scheduler counters (see internal/core/sched.go).
	// LODsSkippedByMargin counts ladder entries the margin plan skipped
	// outright — a reject-leaning pair routed straight to the top LOD skips
	// len(ladder)−1 of them; always zero under SchedStatic. BoundsDecisive
	// counts pairs settled by MINDIST/MAXDIST bounds alone, with no decode
	// at the deciding step: the within filter's whole-subtree definite
	// acceptances, margin-plan accept/reject verdicts, and NN candidates
	// pruned before their decode by the shrinking MINMAXDIST threshold
	// (the filter acceptances and NN prunes also occur — and are counted —
	// under SchedStatic, where the same bounds drive §4.2 and Alg. 3).
	LODsSkippedByMargin int64
	BoundsDecisive      int64

	// Partial-failure accounting, populated only under the Degrade error
	// policy. The returned pairs are the certain answer (settled by the
	// PPVP guarantees independently of any failed object); Uncertain lists
	// the (target, source) pairs a failure left unsettled (Source -1 means
	// an unknown candidate set of that target), and UncertainIDs the
	// unsettled objects of single-dataset queries. Degraded lists each
	// skipped object once with its failure.
	Uncertain    []Pair
	UncertainIDs []int64
	Degraded     []ObjectError

	// QuarantineSkips counts decode requests refused because the object's
	// circuit breaker was open; DecodeRetries counts extra decode attempts
	// made under Degrade. Both policies record quarantine activity.
	QuarantineSkips int64
	DecodeRetries   int64
	// DecodeFailures counts this query's failed miss-path decodes. Like the
	// warm-start counters it is attributed exactly to this query, not
	// diffed from the shared cache's global counters.
	DecodeFailures int64

	// BatchesDispatched and BatchPairs are always zero: the joins refine
	// one pair at a time and submit no batches. The fields remain for the
	// readers that still report them.
	BatchesDispatched int64
	BatchPairs        int64

	// AccelBuilds counts the refinement accelerators (AABB trees, partition
	// groups) this query had to build; AccelReuses counts the lookups served
	// by a structure already memoized on the decoded mesh — built earlier in
	// this query or by any previous one, since the memo lives as long as the
	// mesh's cache entry. A warm engine repeating a query reports zero
	// builds; builds reappearing under steady load mean the cache is
	// evicting meshes (and their accelerators) it will need again.
	AccelBuilds int64
	AccelReuses int64

	// Trace is the query's aggregated span timeline — one event per
	// (phase, LOD), with counts and first/last/total activity offsets —
	// recorded only when QueryOptions.Trace was set.
	Trace []obs.TraceEvent

	// Shards summarizes the per-shard outcomes of a query the sharded
	// coordinator (internal/shard) scatter-gathered; nil for single-engine
	// queries. The coordinator's counters above are exactly the sum of the
	// per-shard Stats referenced here.
	Shards []ShardStat
}

// ShardStat is one shard's outcome within a coordinated query.
type ShardStat struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Status is "ok", "error" (all attempts failed), "open" (the shard's
	// circuit breaker refused the call), or "skipped" (the shard holds no
	// objects relevant to the query and was never called).
	Status string `json:"status"`
	// Attempts counts transport attempts made (retries and hedges
	// included); Hedged reports whether a hedge attempt was launched, and
	// HedgeWon whether the hedge produced the accepted response.
	Attempts int  `json:"attempts"`
	Hedged   bool `json:"hedged,omitempty"`
	HedgeWon bool `json:"hedge_won,omitempty"`
	// Replica is the replica-chain index that served the group (0 = the
	// primary, k > 0 = the k-th failover target); -1 when no replica
	// answered. Always 0 in an unreplicated deployment.
	Replica int `json:"replica"`
	// Err is the final error of a failed shard call ("" on success).
	Err string `json:"error,omitempty"`
	// Elapsed is the shard call's wall-clock time as seen by the
	// coordinator (queueing, retries, and transport included).
	Elapsed time.Duration `json:"-"`
	// Stats is the shard's own execution statistics (nil when the shard
	// never produced a response). Σ over non-nil per-shard Stats equals
	// the coordinator's merged counters.
	Stats *Stats `json:"-"`
}

// Counter is one row of the counter table. Name is the counter's name in
// every output — the front's JSON key, the String label and the /metrics
// family threedpro_query_<Name>_total — and a name ending in "_ms" marks a
// time.Duration field, which outputs report in milliseconds. Field returns
// the counter's field of s.
type Counter struct {
	Name  string
	Field func(s *Stats) *int64
}

// Counters is the counter table: every int64 and time.Duration field of
// Stats, once, in output order. Merge, String, the collector, the front's
// JSON, the shard-leg wire and /metrics are loops over it, so a new counter
// is one Stats field plus one row here.
var Counters = [...]Counter{
	{"elapsed_ms", func(s *Stats) *int64 { return (*int64)(&s.Elapsed) }},
	{"filter_ms", func(s *Stats) *int64 { return (*int64)(&s.FilterTime) }},
	{"decode_ms", func(s *Stats) *int64 { return (*int64)(&s.DecodeTime) }},
	{"geom_ms", func(s *Stats) *int64 { return (*int64)(&s.GeomTime) }},
	{"candidates", func(s *Stats) *int64 { return &s.Candidates }},
	{"results", func(s *Stats) *int64 { return &s.Results }},
	{"decodes", func(s *Stats) *int64 { return &s.Decodes }},
	{"cache_hits", func(s *Stats) *int64 { return &s.CacheHits }},
	{"warm_starts", func(s *Stats) *int64 { return &s.WarmStarts }},
	{"rounds_applied", func(s *Stats) *int64 { return &s.RoundsApplied }},
	{"rounds_skipped", func(s *Stats) *int64 { return &s.RoundsSkipped }},
	{"batches_dispatched", func(s *Stats) *int64 { return &s.BatchesDispatched }},
	{"batch_pairs", func(s *Stats) *int64 { return &s.BatchPairs }},
	{"lods_skipped_by_margin", func(s *Stats) *int64 { return &s.LODsSkippedByMargin }},
	{"bounds_decisive", func(s *Stats) *int64 { return &s.BoundsDecisive }},
	{"accel_builds", func(s *Stats) *int64 { return &s.AccelBuilds }},
	{"accel_reuses", func(s *Stats) *int64 { return &s.AccelReuses }},
	{"quarantine_skips", func(s *Stats) *int64 { return &s.QuarantineSkips }},
	{"decode_retries", func(s *Stats) *int64 { return &s.DecodeRetries }},
	{"decode_failures", func(s *Stats) *int64 { return &s.DecodeFailures }},
}

// Millis reports whether the row is a phase time: its field counts
// nanoseconds, and outputs report it in milliseconds.
func (c Counter) Millis() bool { return strings.HasSuffix(c.Name, "_ms") }

// Value returns the row's value in s as outputs report it: milliseconds for
// a phase time, the count otherwise.
func (c Counter) Value(s *Stats) float64 {
	v := float64(*c.Field(s))
	if c.Millis() {
		return v / float64(time.Millisecond)
	}
	return v
}

// Merge folds other into s: counters add, the per-LOD slices add
// element-wise (growing s as needed, so an early-abort shard whose slices
// are short — or nil — never truncates a survivor's), and the degradation
// and shard lists append. Elapsed takes the maximum: per-shard wall clocks
// overlap, so summing them would double-count; coordinators overwrite it
// with their own wall clock anyway. Merging nil (a shard that died before
// producing statistics) is a no-op.
//
// Merge is commutative and associative up to list order: every numeric
// field is order-independent, and the Uncertain/UncertainIDs/Degraded/
// Shards/Trace lists hold the same elements in append order (callers that
// need a canonical order sort after the final merge).
func (s *Stats) Merge(other *Stats) {
	if s == nil || other == nil {
		return
	}
	elapsed := max(s.Elapsed, other.Elapsed)
	for _, c := range Counters {
		*c.Field(s) += *c.Field(other)
	}
	s.Elapsed = elapsed
	if n := len(other.PairsEvaluated); n > len(s.PairsEvaluated) {
		s.PairsEvaluated = append(s.PairsEvaluated, make([]int64, n-len(s.PairsEvaluated))...)
	}
	for i, v := range other.PairsEvaluated {
		s.PairsEvaluated[i] += v
	}
	if n := len(other.PairsPruned); n > len(s.PairsPruned) {
		s.PairsPruned = append(s.PairsPruned, make([]int64, n-len(s.PairsPruned))...)
	}
	for i, v := range other.PairsPruned {
		s.PairsPruned[i] += v
	}
	s.Uncertain = append(s.Uncertain, other.Uncertain...)
	s.UncertainIDs = append(s.UncertainIDs, other.UncertainIDs...)
	s.Degraded = append(s.Degraded, other.Degraded...)
	s.Trace = append(s.Trace, other.Trace...)
	s.Shards = append(s.Shards, other.Shards...)
}

// PrunedFraction returns PairsPruned[l] / PairsEvaluated[l] (0 when no
// pairs were evaluated) — the quantity compared against 1/r² in §4.4.
func (s *Stats) PrunedFraction(lod int) float64 {
	if lod < 0 || lod >= len(s.PairsEvaluated) || s.PairsEvaluated[lod] == 0 {
		return 0
	}
	return float64(s.PairsPruned[lod]) / float64(s.PairsEvaluated[lod])
}

// String formats the non-zero counters (phase times in milliseconds), the
// list lengths and the per-LOD table on one line.
func (s *Stats) String() string {
	var b strings.Builder
	for _, c := range Counters {
		switch v := *c.Field(s); {
		case v == 0:
		case c.Millis():
			fmt.Fprintf(&b, " %s=%.3f", c.Name, c.Value(s))
		default:
			fmt.Fprintf(&b, " %s=%d", c.Name, v)
		}
	}
	if len(s.Degraded) > 0 || len(s.Uncertain) > 0 || len(s.UncertainIDs) > 0 {
		fmt.Fprintf(&b, " degraded=%d uncertain=%d", len(s.Degraded), len(s.Uncertain)+len(s.UncertainIDs))
	}
	if len(s.Shards) > 0 {
		fmt.Fprintf(&b, " shards=%d", len(s.Shards))
	}
	if len(s.Trace) > 0 {
		fmt.Fprintf(&b, " trace_events=%d", len(s.Trace))
	}
	for l := range s.PairsEvaluated {
		if s.PairsEvaluated[l] > 0 {
			fmt.Fprintf(&b, " lod%d=%d/%d", l, s.PairsPruned[l], s.PairsEvaluated[l])
		}
	}
	return strings.TrimPrefix(b.String(), " ")
}

// collector accumulates statistics from concurrent workers.
type collector struct {
	// n holds the counters, indexed like Counters. Elapsed and the
	// cache-attributed rows are filled in at snapshot time.
	n         [len(Counters)]atomic.Int64
	evaluated []atomic.Int64
	pruned    []atomic.Int64

	// cacheCtrs is this query's private attribution sink: every cache call
	// the query makes passes it down, and the cache increments it in step
	// with its own shard counters. Reading it at snapshot time therefore
	// yields the query's exact warm-start/rounds/failure numbers, immune to
	// other queries hammering the shared cache concurrently. Hits and Misses
	// stay unread: decodeOnce counts them per LOD for the trace.
	cacheCtrs cache.Counters

	// tr aggregates span-style trace events when QueryOptions.Trace is set;
	// nil otherwise, and every obs.Recorder method is a no-op on nil, so
	// the hot path pays nothing when tracing is off.
	tr *obs.Recorder
}

// The rows the collector adds to.
var (
	rowFilter, rowDecode, rowGeom = row("filter_ms"), row("decode_ms"), row("geom_ms")
	rowCandidates, rowResults     = row("candidates"), row("results")
	rowDecodes, rowCacheHits      = row("decodes"), row("cache_hits")
	rowQuarantineSkips            = row("quarantine_skips")
	rowDecodeRetries              = row("decode_retries")
	rowLODsSkipped                = row("lods_skipped_by_margin")
	rowBoundsDecisive             = row("bounds_decisive")
	rowAccelBuilds                = row("accel_builds")
	rowAccelReuses                = row("accel_reuses")
)

// row returns the index of the named counter in Counters.
func row(name string) int {
	for i, c := range Counters {
		if c.Name == name {
			return i
		}
	}
	panic("core: no counter named " + name)
}

func newCollector(maxLOD int, q QueryOptions, start time.Time) *collector {
	c := &collector{
		evaluated: make([]atomic.Int64, maxLOD+1),
		pruned:    make([]atomic.Int64, maxLOD+1),
	}
	if q.Trace {
		c.tr = obs.NewRecorder(start)
	}
	return c
}

// filterPhase times the filtering step and traces it as one span.
func (c *collector) filterPhase(fn func()) {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	c.n[rowFilter].Add(d.Nanoseconds())
	c.tr.Observe("filter", obs.NoLOD, t0, d)
}

// decodeMiss records a cache-missing decode that started at t0.
func (c *collector) decodeMiss(lod int, t0 time.Time) {
	d := time.Since(t0)
	c.n[rowDecode].Add(d.Nanoseconds())
	c.tr.Observe("decode", lod, t0, d)
}

// cacheHit records a decode request served from the cache.
func (c *collector) cacheHit(lod int) {
	c.n[rowCacheHits].Add(1)
	c.tr.Count("cache_hit", lod, 1)
}

// geomDone records a geometric evaluation that started at t0. Call it via
// defer with time.Now() as the argument — arguments are evaluated at defer
// time, so no timing closure is needed.
func (c *collector) geomDone(lod int, t0 time.Time) {
	d := time.Since(t0)
	c.n[rowGeom].Add(d.Nanoseconds())
	c.tr.Observe("geom", lod, t0, d)
}

// evalPair counts one candidate pair evaluated at lod.
func (c *collector) evalPair(lod int) {
	c.evaluated[lod].Add(1)
	c.tr.Count("evaluate", lod, 1)
}

// settlePair counts one candidate pair settled (accepted or rejected for
// good) at lod.
func (c *collector) settlePair(lod int) {
	c.pruned[lod].Add(1)
	c.tr.Count("settle", lod, 1)
}

// skipLODs counts n ladder entries the margin plan skipped for one pair.
func (c *collector) skipLODs(n int) {
	if n > 0 {
		c.n[rowLODsSkipped].Add(int64(n))
	}
}

// boundsDecided counts one pair settled by filter-phase bounds alone.
func (c *collector) boundsDecided() { c.n[rowBoundsDecisive].Add(1) }

// accel counts one accelerator lookup: a build, or a reuse of the mesh memo.
func (c *collector) accel(built bool) {
	if built {
		c.n[rowAccelBuilds].Add(1)
	} else {
		c.n[rowAccelReuses].Add(1)
	}
}

func (c *collector) snapshot(elapsed time.Duration) *Stats {
	s := &Stats{
		PairsEvaluated: make([]int64, len(c.evaluated)),
		PairsPruned:    make([]int64, len(c.pruned)),
		Trace:          c.tr.Events(),
	}
	for i, r := range Counters {
		*r.Field(s) = c.n[i].Load()
	}
	s.Elapsed = elapsed
	s.WarmStarts = c.cacheCtrs.WarmStarts.Load()
	s.RoundsApplied = c.cacheCtrs.RoundsApplied.Load()
	s.RoundsSkipped = c.cacheCtrs.RoundsSkipped.Load()
	s.DecodeFailures = c.cacheCtrs.DecodeFailures.Load()
	for i := range c.evaluated {
		s.PairsEvaluated[i] = c.evaluated[i].Load()
		s.PairsPruned[i] = c.pruned[i].Load()
	}
	return s
}
