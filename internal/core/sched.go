package core

// The margin-governed LOD scheduler (ROADMAP item 3, the "Decode-Work Law"
// direction). Two mechanisms replace the paper's one-shot static §4.4 rule:
//
//  1. An engine-level online calibrator: every finished query feeds its
//     per-LOD pruned fractions into per-(kind, dataset pair, LOD) counts,
//     sums and EWMA estimators. Under SchedMargin with no explicit
//     QueryOptions.LODs the ladder is re-derived per query from the live
//     estimates of the join being run, as the paper profiles a sample
//     cuboid of that join, instead of from a stale one-off profile.
//
//  2. A per-pair margin plan built from sound bounds. Before the ladder,
//     the MBB MINDIST/MAXDIST interval [lo, hi] the filter already computed
//     settles threshold-excluded pairs with no decode at all
//     (Stats.BoundsDecisive). On the ladder, the measured LOD-k distance —
//     a sound upper bound of the true distance under PPVP, obtained by
//     widening the evaluator's search bound to marginJumpFactor·dist — is
//     the margin: a pair measured far above the threshold is overwhelmingly
//     a reject, and under PPVP only the top LOD can reject, so it jumps
//     straight there instead of being re-evaluated at every intermediate
//     LOD (Stats.LODsSkippedByMargin); a near-miss keeps walking, because
//     the next LOD's smaller distance may still accept it. Box-derived
//     heuristics were measured and rejected for this routing: box MAXDIST
//     is corner-to-corner loose (everything would jump) and the box gap
//     fraction lo/dist does not separate accepts from rejects on
//     nuclei-like data — the measured distance does.
//
// Soundness / byte-equality with SchedStatic: a pair is only ever accepted
// on a sound upper bound (a measured low-LOD distance ≤ dist, a low-LOD
// face hit, or MBB MAXDIST ≤ dist) and only ever rejected at the top LOD or
// on a sound lower bound (MBB MINDIST > dist). Both properties hold for
// every routing above, so the final result set does not depend on which
// intermediate LODs a pair visits — the equivalence suite in sched_test.go
// pins this against the static per-pair reference.

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/geom"
)

// calEWMAAlpha weights the newest query's pruned fraction in the EWMA —
// high enough to track workload shifts within tens of queries, low enough
// that one odd query does not flip the ladder.
const calEWMAAlpha = 0.2

// calProbeEvery bounds how long a dropped LOD stays dropped: once the
// calibrated ladder has excluded a LOD this many times in a row it is
// probed again (included for one query) so its estimate can refresh.
// Without the probe an excluded LOD would never be evaluated again and its
// estimate would freeze at the value that excluded it.
const calProbeEvery = 16

// calPair names the join a calibrator estimate belongs to: the query kind
// and the target and source datasets. Pruning rates follow the geometry of
// the pair (nuclei × nuclei prunes half its pairs at LOD 0, nuclei ×
// vessels a sixth), so pairs of one kind keep separate ladders. The
// datasets are keyed by name: a reload or a shard worker's per-leg source
// set (home sources plus that query's loans) is a new *Dataset every time,
// and keying by it would restart calibration from the full ladder and grow
// the map without bound, while the name stays the same.
type calPair struct {
	kind           QueryKind
	target, source string
}

// pairOf is the calibrator key of a join of kind over target × source.
func pairOf(kind QueryKind, target, source *Dataset) calPair {
	return calPair{kind, target.Name, source.Name}
}

// calKey is one (kind, dataset pair, LOD) cell of the calibrator.
type calKey struct {
	calPair
	lod int
}

// calCell is the model for one calKey: the count and sum of every
// observation and the recency-weighted EWMA.
type calCell struct {
	count int64
	sum   float64
	ewma  float64
	skips int // consecutive ladder exclusions since the last probe
}

// calibrator is the engine-level online pruning model. All methods are
// safe for concurrent use; the mutex is touched once per query (observe)
// and once per margin-scheduled ladder derivation, never per pair.
type calibrator struct {
	mu    sync.Mutex
	cells map[calKey]*calCell
}

func newCalibrator() *calibrator {
	return &calibrator{cells: make(map[calKey]*calCell)}
}

// observe feeds one finished query's per-LOD pruned fractions into the
// model of its pair. Only LODs below the query's top LOD are recorded:
// every pair settles at the top, so its fraction says nothing about whether
// an intermediate LOD pays, yet a later query of the pair with a higher top
// (a shard leg's source set, home sources plus that query's loans, can
// have another maxLOD each query) would read it as one. LODs that
// evaluated no pairs contribute nothing — an absent observation, not a
// zero.
func (c *calibrator) observe(p calPair, top int, st *Stats) {
	if c == nil || st == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for lod := 0; lod < min(top, len(st.PairsEvaluated)); lod++ {
		if st.PairsEvaluated[lod] == 0 {
			continue
		}
		frac := st.PrunedFraction(lod)
		key := calKey{p, lod}
		cell, ok := c.cells[key]
		if !ok {
			cell = &calCell{ewma: frac}
			c.cells[key] = cell
		} else {
			cell.ewma = calEWMAAlpha*frac + (1-calEWMAAlpha)*cell.ewma
		}
		cell.count++
		cell.sum += frac
	}
}

// ladder derives the calibrated LOD schedule for one query of pair p:
// every LOD below the top whose estimated pruned fraction strictly exceeds
// the §4.4 threshold, plus the top LOD. With no evidence for the pair yet,
// every LOD is included (the paper's uncalibrated default) — those
// full-ladder queries are what seed the model.
func (c *calibrator) ladder(p calPair, maxLOD int) []int {
	full := func() []int {
		out := make([]int, maxLOD+1)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if c == nil {
		return full()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seeded := false
	for l := 0; l < maxLOD; l++ {
		if _, ok := c.cells[calKey{p, l}]; ok {
			seeded = true
			break
		}
	}
	if !seeded {
		return full()
	}
	out := make([]int, 0, maxLOD+1)
	for l := 0; l < maxLOD; l++ {
		cell, ok := c.cells[calKey{p, l}]
		if !ok {
			// Never observed (e.g. the seeding queries' pairs all settled
			// below it): probe it on the same cadence as dropped LODs.
			cell = &calCell{}
			c.cells[calKey{p, l}] = cell
		}
		if cell.count > 0 && cell.ewma > DefaultPruneThreshold {
			cell.skips = 0
			out = append(out, l)
			continue
		}
		// Excluded: count the skip and periodically re-include the LOD so
		// the estimate can recover if the workload shifted.
		cell.skips++
		if cell.skips >= calProbeEvery {
			cell.skips = 0
			out = append(out, l)
		}
	}
	out = append(out, maxLOD)
	return out
}

// CalibrationEntry is one (kind, dataset pair, LOD) cell of the scheduler
// calibrator's state, serialized for /statusz and tests.
type CalibrationEntry struct {
	Kind   string `json:"kind"`
	Target string `json:"target"`
	Source string `json:"source"`
	LOD    int    `json:"lod"`
	// EWMA is the recency-weighted pruned-fraction estimate the ladder rule
	// compares against the §4.4 threshold; Count and Mean summarize every
	// observation.
	EWMA  float64 `json:"ewma"`
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
}

// SchedCalibration snapshots the online LOD-schedule calibrator, one entry
// per observed (kind, dataset pair, LOD), ordered by kind, target, source,
// then LOD.
func (e *Engine) SchedCalibration() []CalibrationEntry {
	c := e.cal
	c.mu.Lock()
	out := make([]CalibrationEntry, 0, len(c.cells))
	for k, cell := range c.cells {
		if cell.count == 0 {
			continue
		}
		out = append(out, CalibrationEntry{
			Kind: k.kind.String(), Target: k.target, Source: k.source, LOD: k.lod,
			EWMA: cell.ewma, Count: cell.count, Mean: cell.sum / float64(cell.count),
		})
	}
	c.mu.Unlock()
	slices.SortFunc(out, func(a, b CalibrationEntry) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Target, b.Target),
			cmp.Compare(a.Source, b.Source), cmp.Compare(a.LOD, b.LOD))
	})
	return out
}

// schedule returns the LOD ladder of a query of pair p. Explicit q.LODs,
// FR, and SchedStatic take the static path (lodSchedule); a
// margin-scheduled FPR query with no pinned LODs gets the pair's
// online-calibrated ladder.
func (e *Engine) schedule(q *QueryOptions, maxLOD int, p calPair) []int {
	if q.Paradigm == FR || q.Sched == SchedStatic || len(q.LODs) > 0 {
		return q.lodSchedule(maxLOD, q.Paradigm)
	}
	return e.cal.ladder(p, maxLOD)
}

// pairPlan is the margin scheduler's routing verdict for one candidate.
type pairPlan int

const (
	// planWalk rides the ladder from its first LOD (accept-leaning).
	planWalk pairPlan = iota
	// planDirect enters the ladder at the top LOD, skipping every
	// intermediate entry (degenerate-contact intersect candidates; within
	// pairs reach the same routing mid-ladder via marginJumpFactor).
	planDirect
	// planAccept and planReject settle the pair from bounds alone, with no
	// decode at any LOD.
	planAccept
	planReject
)

// marginJumpFactor widens the within-distance evaluator's search bound
// under SchedMargin: distances up to marginJumpFactor·dist are measured
// exactly instead of being cut off at dist. The measured value is a sound
// upper bound of the true distance (PPVP property 2), so a pair whose
// LOD-k distance still exceeds marginJumpFactor·dist would need the
// remaining rounds to shrink it by more than half to be accepted —
// overwhelmingly a reject, which only the top LOD can decide — and jumps
// straight there. A near-miss (between dist and the widened bound) keeps
// walking. The widened bound costs a slightly deeper bounded search per
// evaluation and buys the jump signal, so it is applied only at ladder
// rungs from which a jump can still skip an entry (two or more below the
// top) — the final rungs keep the narrow bound. The factor steers only
// work placement, never results — accepts still require a measured
// distance ≤ dist, exactly as under SchedStatic.
const marginJumpFactor = 2.0

// planWithin routes one within-distance candidate from its MBB bounds.
// The R-tree filter already removed MINDIST/MAXDIST-decisive entries, but
// the whole-object boxes compared here can differ from the (possibly
// sub-object) index entries, so the decisive checks stay for soundness.
// There is deliberately no bounds-based planDirect: measured on nuclei
// data, the box gap fraction lo/dist runs all the way to ~0.97 on pairs
// that ultimately accept, so pre-ladder reject-routing from boxes alone
// misroutes accept-heavy workloads; reject-leaning pairs are instead
// detected mid-ladder from their measured distance (marginJumpFactor).
func planWithin(tb, sb geom.Box3, dist float64) pairPlan {
	hi := tb.MaxDist(sb)
	if hi <= dist {
		return planAccept // true distance ≤ MAXDIST ≤ dist
	}
	if tb.MinDist(sb) > dist {
		return planReject // true distance ≥ MINDIST > dist
	}
	return planWalk
}

// planIntersect routes one intersection candidate. Intersection has no
// predicate threshold, so there is no bounds-only verdict and no margin
// interval; per-pair routing is limited to degenerate contacts — MBBs
// touching with zero-volume overlap — where a face hit would need
// triangles lying exactly in the contact plane: overwhelmingly rejects,
// which only the top LOD can decide, so walking the ladder would evaluate
// them at every LOD for nothing. Every other candidate walks; intersect
// adaptivity otherwise comes from the calibrated ladder.
func planIntersect(tb, sb geom.Box3) pairPlan {
	for ax := 0; ax < 3; ax++ {
		lo := maxFloat(tb.Min.Component(ax), sb.Min.Component(ax))
		hi := minFloat(tb.Max.Component(ax), sb.Max.Component(ax))
		if hi <= lo {
			return planDirect // degenerate contact: no interior overlap
		}
	}
	return planWalk
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
