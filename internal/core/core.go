// Package core implements the 3DPro query engine: the Filter-Progressive-
// Refine paradigm of the paper built on PPVP-compressed datasets, a global
// R-tree, a decode cache, and three interchangeable refinement
// accelerators (AABB-trees, skeleton partitioning, and the simulated GPU).
//
// The engine answers three spatial joins — intersection, within-distance,
// and (k-)nearest-neighbor — under either the traditional Filter-Refine
// paradigm (decode everything to the highest LOD, then refine) or the
// paper's Filter-Progressive-Refine paradigm (refine candidates at
// ascending LODs and settle them as early as the PPVP guarantees allow).
//
// Precondition for distance queries (WithinJoin, NNJoin, KNNJoin): the two
// datasets' object interiors must be mutually disjoint, as the paper's
// tissue datasets are ("the objects in the same dataset do not intersect").
// The PPVP distance property — a low-LOD distance upper-bounds the true
// distance — holds for solids with disjoint interiors; when one object
// nests inside another, the surface distance of shrunken LODs can move in
// either direction and early acceptance would be unsound. IntersectJoin has
// no such precondition. Use datagen.NucleiPair (or equivalently placed
// data) for distance workloads.
package core

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/gpusim"
	"repro/internal/quarantine"
)

// Paradigm selects how the refinement step walks the LODs.
type Paradigm int

const (
	// FR is the traditional Filter-Refine paradigm: all candidates are
	// decoded to the highest LOD before any geometric evaluation.
	FR Paradigm = iota
	// FPR is the paper's Filter-Progressive-Refine paradigm: candidates
	// are evaluated at ascending LODs and removed as soon as the
	// progressive-approximation properties settle them.
	FPR
)

func (p Paradigm) String() string {
	if p == FR {
		return "FR"
	}
	return "FPR"
}

// Accel selects the intra-geometry acceleration technique applied during
// refinement (§5.1 of the paper). All of them compose with either paradigm.
type Accel int

const (
	// BruteForce evaluates every face pair.
	BruteForce Accel = iota
	// AABB builds AABB-trees over decoded faces and uses tree-vs-tree
	// traversals.
	AABB
	// Partition groups decoded faces by the object's skeleton points and
	// prunes group pairs by their bounding boxes.
	Partition
	// GPU ships face-pair batches to the simulated GPU device.
	GPU
	// PartitionGPU combines skeleton partitioning with GPU batch
	// evaluation of the surviving group pairs.
	PartitionGPU
)

func (a Accel) String() string {
	switch a {
	case BruteForce:
		return "brute"
	case AABB:
		return "aabb"
	case Partition:
		return "partition"
	case GPU:
		return "gpu"
	case PartitionGPU:
		return "partition+gpu"
	default:
		return "unknown"
	}
}

// UsesPartition reports whether the accelerator needs skeletons.
func (a Accel) UsesPartition() bool { return a == Partition || a == PartitionGPU }

// Exec names a drive of the IntersectJoin and WithinJoin refinement stages.
// There is one drive (pipeline.go): each filter worker walks its candidates
// up the ladder one pair at a time. Both values run it, so they give the same
// answer and the same Stats; the values remain because callers still set
// and print them.
type Exec int

const (
	// ExecAuto is the zero value: the one drive.
	ExecAuto Exec = iota
	// ExecPerPair also runs the one drive.
	ExecPerPair
)

func (x Exec) String() string {
	if x == ExecPerPair {
		return "per-pair"
	}
	return "auto"
}

// Sched selects the LOD scheduling policy progressive refinement uses.
type Sched int

const (
	// SchedMargin — the default — is the margin-governed scheduler: the LOD
	// ladder is calibrated online from the engine's per-(kind, dataset
	// pair, LOD) pruning estimates, and each candidate pair is routed by
	// its own distance margin (derived from the MBB MINDIST/MAXDIST bounds
	// the filter already computed): bound-decisive pairs go straight to
	// their verdict with no decode at all, reject-leaning pairs jump
	// directly to the top LOD, and accept-leaning pairs walk the ladder.
	// Results are byte-identical to SchedStatic: accepts only ever happen
	// on sound upper bounds and rejects only at the top LOD, so the final
	// answer is independent of which intermediate LODs a pair visits.
	SchedMargin Sched = iota
	// SchedStatic is the paper's §4.4 reference semantics: every candidate
	// rides the one query-wide ladder (QueryOptions.LODs, typically from a
	// one-shot ProfileLODs run; every LOD when empty).
	SchedStatic
)

func (s Sched) String() string {
	if s == SchedStatic {
		return "static"
	}
	return "margin"
}

// EngineOptions configures a query engine instance.
type EngineOptions struct {
	// CacheBytes is the decode cache budget (paper: 80 GB; default here
	// 256 MB). Zero disables the cache, reproducing Table 2's "no cache"
	// column.
	CacheBytes int64
	// Workers bounds query parallelism (default GOMAXPROCS).
	Workers int
	// QuarantineThreshold is the per-object failure count that trips the
	// quarantine circuit breaker open (default 3); QuarantineCooldown is how
	// long a tripped object stays blocked before a half-open probe is
	// admitted (default 30s). See package quarantine.
	QuarantineThreshold int
	QuarantineCooldown  time.Duration
}

func (o *EngineOptions) setDefaults() {
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	if o.CacheBytes < 0 {
		o.CacheBytes = 0
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Engine owns the shared query-processing resources: the decode cache and
// the simulated GPU. Datasets are built through it and queried against each
// other. An Engine is safe for concurrent use; Close releases the device.
type Engine struct {
	opts  EngineOptions
	cache *cache.Cache
	dev   *gpusim.Device
	quar  *quarantine.Breaker[int64]
	cal   *calibrator
}

// NewEngine creates an engine.
func NewEngine(opts EngineOptions) *Engine {
	opts.setDefaults()
	return &Engine{
		opts:  opts,
		cache: cache.New(opts.CacheBytes),
		dev:   gpusim.New(0, 0),
		quar: quarantine.NewBreaker[int64](quarantine.Options{
			Threshold: opts.QuarantineThreshold,
			Cooldown:  opts.QuarantineCooldown,
		}),
		cal: newCalibrator(),
	}
}

// Close releases the simulated GPU device.
func (e *Engine) Close() { e.dev.Close() }

// Cache exposes the decode cache (for statistics and experiments).
func (e *Engine) Cache() *cache.Cache { return e.cache }

// Quarantine exposes the circuit breaker keyed by blob (ppvp.Compressed.ID,
// like the decode cache), which every dataset holding a blob shares (for
// statistics, readiness probes, and operator inspection).
func (e *Engine) Quarantine() *quarantine.Breaker[int64] { return e.quar }

// QueryOptions configures one join execution.
type QueryOptions struct {
	// Paradigm selects FR or FPR.
	Paradigm Paradigm
	// Accel selects the refinement accelerator.
	Accel Accel
	// LODs lists the LODs progressive refinement visits, ascending. The
	// engine appends the dataset's highest LOD if missing so results are
	// always exact. Empty means every LOD (0..max). Ignored under FR.
	LODs []int
	// Workers overrides the engine-level parallelism for this query.
	Workers int
	// K is the neighbor count for KNNJoin (default 1).
	K int
	// OnError selects the partial-failure policy: FailFast (default) aborts
	// on the first object failure; Degrade skips failing objects and
	// reports them in Stats.Degraded, with unsettled pairs in
	// Stats.Uncertain.
	OnError ErrorPolicy
	// ErrorBudget bounds the distinct failed objects a Degrade-policy query
	// tolerates before aborting anyway (0 = default 64; negative =
	// unlimited). Quarantine skips don't consume the budget.
	ErrorBudget int
	// Trace enables per-query span recording: phase activity aggregated by
	// (phase, LOD) is returned in Stats.Trace. Off by default — each traced
	// span takes a mutex on the hot path.
	Trace bool
	// Exec is ignored: both values run the one refinement drive (see Exec).
	Exec Exec
	// Sched selects the LOD scheduling policy: SchedMargin (the default)
	// routes each candidate pair by its distance margin over an
	// online-calibrated ladder; SchedStatic is the paper's static reference
	// rule. Both produce byte-identical results.
	Sched Sched
}

// marginSched reports whether the per-pair margin scheduler is active: only
// under FPR (FR is the decode-everything baseline and stays untouched as
// reference semantics).
func (q *QueryOptions) marginSched() bool { return q.Sched == SchedMargin && q.Paradigm == FPR }

func (q *QueryOptions) workers(e *Engine) int {
	if q.Workers > 0 {
		return q.Workers
	}
	return e.opts.Workers
}

// lodSchedule returns the LOD ladder for a dataset pair under the options.
func (q *QueryOptions) lodSchedule(maxLOD int, paradigm Paradigm) []int {
	if paradigm == FR {
		return []int{maxLOD}
	}
	if len(q.LODs) == 0 {
		out := make([]int, maxLOD+1)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, len(q.LODs)+1)
	prev := -1
	for _, l := range q.LODs {
		if l < 0 || l > maxLOD || l <= prev {
			continue
		}
		out = append(out, l)
		prev = l
	}
	if len(out) == 0 || out[len(out)-1] != maxLOD {
		out = append(out, maxLOD)
	}
	return out
}

// Pair is one join result: source object src satisfies the predicate with
// target object tgt.
type Pair struct {
	Target int64 `json:"target"`
	Source int64 `json:"source"`
}

func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.Target, p.Source) }

// Neighbor is one nearest-neighbor result.
type Neighbor struct {
	Target int64   `json:"target"`
	Source int64   `json:"source"`
	Dist   float64 `json:"dist"`
}
