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
// time and can exceed Elapsed.
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
	// counts decode requests served from the LRU cache during this query.
	Decodes   int64
	CacheHits int64

	// WarmStarts counts cache misses that resumed a retained progressive
	// decoder instead of replaying from LOD 0; RoundsApplied counts decode
	// rounds actually replayed during this query and RoundsSkipped the
	// rounds warm starts reused. The cold-path cost would have been
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
	Elapsed time.Duration `json:"elapsed_ns"`
	// Stats is the shard's own execution statistics (nil when the shard
	// never produced a response). Σ over non-nil per-shard Stats equals
	// the coordinator's merged counters.
	Stats *Stats `json:"-"`
}

// Merge folds other into s: phase times and counters add, the per-LOD
// slices add element-wise (growing s as needed, so an early-abort shard
// whose slices are short — or nil — never truncates a survivor's), and the
// degradation and shard lists append. Elapsed takes the maximum: per-shard
// wall clocks overlap, so summing them would double-count; coordinators
// overwrite it with their own wall clock anyway. Merging nil (a shard that
// died before producing statistics) is a no-op.
//
// Merge is commutative and associative up to list order: every numeric
// field is order-independent, and the Uncertain/UncertainIDs/Degraded/
// Shards/Trace lists hold the same elements in append order (callers that
// need a canonical order sort after the final merge).
func (s *Stats) Merge(other *Stats) {
	if s == nil || other == nil {
		return
	}
	if other.Elapsed > s.Elapsed {
		s.Elapsed = other.Elapsed
	}
	s.FilterTime += other.FilterTime
	s.DecodeTime += other.DecodeTime
	s.GeomTime += other.GeomTime
	s.Candidates += other.Candidates
	s.Results += other.Results
	s.Decodes += other.Decodes
	s.CacheHits += other.CacheHits
	s.WarmStarts += other.WarmStarts
	s.RoundsApplied += other.RoundsApplied
	s.RoundsSkipped += other.RoundsSkipped
	s.QuarantineSkips += other.QuarantineSkips
	s.DecodeRetries += other.DecodeRetries
	s.DecodeFailures += other.DecodeFailures
	s.BatchesDispatched += other.BatchesDispatched
	s.BatchPairs += other.BatchPairs
	s.LODsSkippedByMargin += other.LODsSkippedByMargin
	s.BoundsDecisive += other.BoundsDecisive
	s.AccelBuilds += other.AccelBuilds
	s.AccelReuses += other.AccelReuses
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

// String formats the stats as a one-line summary plus the LOD table.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%v filter=%v decode=%v geom=%v candidates=%d results=%d decodes=%d cacheHits=%d warmStarts=%d roundsApplied=%d roundsSkipped=%d",
		s.Elapsed.Round(time.Microsecond), s.FilterTime.Round(time.Microsecond),
		s.DecodeTime.Round(time.Microsecond), s.GeomTime.Round(time.Microsecond),
		s.Candidates, s.Results, s.Decodes, s.CacheHits,
		s.WarmStarts, s.RoundsApplied, s.RoundsSkipped)
	if s.BatchesDispatched > 0 {
		fmt.Fprintf(&b, " batches=%d batchPairs=%d", s.BatchesDispatched, s.BatchPairs)
	}
	if s.LODsSkippedByMargin > 0 || s.BoundsDecisive > 0 {
		fmt.Fprintf(&b, " marginSkips=%d boundsDecisive=%d", s.LODsSkippedByMargin, s.BoundsDecisive)
	}
	if s.AccelBuilds > 0 || s.AccelReuses > 0 {
		fmt.Fprintf(&b, " accelBuilds=%d accelReuses=%d", s.AccelBuilds, s.AccelReuses)
	}
	if len(s.Degraded) > 0 || len(s.Uncertain) > 0 || len(s.UncertainIDs) > 0 || s.QuarantineSkips > 0 || s.DecodeFailures > 0 {
		fmt.Fprintf(&b, " degraded=%d uncertain=%d quarantineSkips=%d decodeRetries=%d decodeFailures=%d",
			len(s.Degraded), len(s.Uncertain)+len(s.UncertainIDs), s.QuarantineSkips, s.DecodeRetries, s.DecodeFailures)
	}
	if len(s.Shards) > 0 {
		fmt.Fprintf(&b, " shards=%d", len(s.Shards))
	}
	if len(s.Trace) > 0 {
		fmt.Fprintf(&b, " traceEvents=%d", len(s.Trace))
	}
	for l := range s.PairsEvaluated {
		if s.PairsEvaluated[l] > 0 {
			fmt.Fprintf(&b, " lod%d=%d/%d", l, s.PairsPruned[l], s.PairsEvaluated[l])
		}
	}
	return b.String()
}

// collector accumulates statistics from concurrent workers.
type collector struct {
	filterNs        atomic.Int64
	decodeNs        atomic.Int64
	geomNs          atomic.Int64
	candidates      atomic.Int64
	results         atomic.Int64
	decodes         atomic.Int64
	cacheHits       atomic.Int64
	quarantineSkips atomic.Int64
	decodeRetries   atomic.Int64
	lodsSkipped     atomic.Int64
	boundsDecisive  atomic.Int64
	accelBuilds     atomic.Int64
	accelReuses     atomic.Int64
	evaluated       []atomic.Int64
	pruned          []atomic.Int64

	// cacheCtrs is this query's private attribution sink: every cache call
	// the query makes passes it down, and the cache increments it in step
	// with its own shard counters. Reading it at snapshot time therefore
	// yields the query's exact warm-start/rounds/failure numbers, immune to
	// other queries hammering the shared cache concurrently.
	//
	//lint:ignore statsexhaustive Hits/Misses are intentionally unread: the engine counts its own decodes/cacheHits in decodeOnce for per-LOD trace attribution, which the cache-side counters cannot provide
	cacheCtrs cache.Counters

	// tr aggregates span-style trace events when QueryOptions.Trace is set;
	// nil otherwise, and every obs.Recorder method is a no-op on nil, so
	// the hot path pays nothing when tracing is off.
	tr *obs.Recorder
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
	c.filterNs.Add(d.Nanoseconds())
	c.tr.Observe("filter", obs.NoLOD, t0, d)
}

// decodeMiss records a cache-missing decode that started at t0.
func (c *collector) decodeMiss(lod int, t0 time.Time) {
	d := time.Since(t0)
	c.decodeNs.Add(d.Nanoseconds())
	c.tr.Observe("decode", lod, t0, d)
}

// cacheHit records a decode request served from the cache.
func (c *collector) cacheHit(lod int) {
	c.cacheHits.Add(1)
	c.tr.Count("cache_hit", lod, 1)
}

// geomDone records a geometric evaluation that started at t0. Call it via
// defer with time.Now() as the argument — arguments are evaluated at defer
// time, so no timing closure is needed.
func (c *collector) geomDone(lod int, t0 time.Time) {
	d := time.Since(t0)
	c.geomNs.Add(d.Nanoseconds())
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
		c.lodsSkipped.Add(int64(n))
	}
}

// boundsDecided counts one pair settled by filter-phase bounds alone.
func (c *collector) boundsDecided() { c.boundsDecisive.Add(1) }

// accel counts one accelerator lookup: a build, or a reuse of the mesh memo.
func (c *collector) accel(built bool) {
	if built {
		c.accelBuilds.Add(1)
	} else {
		c.accelReuses.Add(1)
	}
}

func (c *collector) snapshot(elapsed time.Duration) *Stats {
	s := &Stats{
		Elapsed:             elapsed,
		FilterTime:          time.Duration(c.filterNs.Load()),
		DecodeTime:          time.Duration(c.decodeNs.Load()),
		GeomTime:            time.Duration(c.geomNs.Load()),
		Candidates:          c.candidates.Load(),
		Results:             c.results.Load(),
		Decodes:             c.decodes.Load(),
		CacheHits:           c.cacheHits.Load(),
		QuarantineSkips:     c.quarantineSkips.Load(),
		DecodeRetries:       c.decodeRetries.Load(),
		LODsSkippedByMargin: c.lodsSkipped.Load(),
		BoundsDecisive:      c.boundsDecisive.Load(),
		AccelBuilds:         c.accelBuilds.Load(),
		AccelReuses:         c.accelReuses.Load(),
		WarmStarts:          c.cacheCtrs.WarmStarts.Load(),
		RoundsApplied:       c.cacheCtrs.RoundsApplied.Load(),
		RoundsSkipped:       c.cacheCtrs.RoundsSkipped.Load(),
		DecodeFailures:      c.cacheCtrs.DecodeFailures.Load(),
		PairsEvaluated:      make([]int64, len(c.evaluated)),
		PairsPruned:         make([]int64, len(c.pruned)),
		Trace:               c.tr.Events(),
	}
	for i := range c.evaluated {
		s.PairsEvaluated[i] = c.evaluated[i].Load()
		s.PairsPruned[i] = c.pruned[i].Load()
	}
	return s
}
