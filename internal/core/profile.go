package core

import (
	"context"
	"fmt"

	"repro/internal/storage"
)

// QueryKind names one of the three supported join predicates.
type QueryKind int

const (
	IntersectKind QueryKind = iota
	WithinKind
	NNKind
)

func (k QueryKind) String() string {
	switch k {
	case IntersectKind:
		return "intersect"
	case WithinKind:
		return "within"
	default:
		return "nn"
	}
}

// DefaultPruneThreshold is the paper's §4.4 criterion with r = 2: refining
// at a LOD pays off when more than 1/r² = 25 % of the evaluated pairs are
// settled there.
const DefaultPruneThreshold = 0.25

// SampleCuboid returns a shallow view of the dataset restricted to its most
// populated cuboid — the paper's §6.5 profiling sample. The view shares the
// indexes and objects of the original, so queries against it behave as if
// only those targets were asked about.
//
// Aliasing contract: the view is shallow on purpose. It shares the original
// Tileset's object map, compressed payloads, R-trees, and skeletons — only
// the Tiles map is replaced with the single-cuboid restriction — so
// profiling decodes hit the same blob-keyed cache entries and breakers as
// live queries (that sharing is what makes the profile cheap and
// representative), and a self-join profile still skips self-pairs. Both views must be treated as read-only; this is safe
// concurrently because queries never mutate dataset state, and per-query
// statistics stay exact because every query attributes cache activity
// through its own private counter sink (collector.cacheCtrs), never by
// diffing shared counters. obs_test.go pins that profiling alongside live
// queries does not perturb their counters.
func (d *Dataset) SampleCuboid() *Dataset {
	best, bestN := -1, -1
	for c, objs := range d.Tileset.Tiles {
		if len(objs) > bestN || (len(objs) == bestN && c < best) {
			best, bestN = c, len(objs)
		}
	}
	if best < 0 {
		return d
	}
	view := *d
	ts := *d.Tileset
	ts.Tiles = map[int][]*storage.Object{best: d.Tileset.Tiles[best]}
	view.Tileset = &ts
	return &view
}

// ProfileLODs runs the given join on a single-cuboid sample of the target
// with refinement at every LOD, then returns the LOD schedule the §4.4 rule
// selects from the sample's statistics (profileLadder). dist is only used
// for WithinKind. The sample's statistics are returned for inspection
// (Fig. 12).
func (e *Engine) ProfileLODs(ctx context.Context, target, source *Dataset, kind QueryKind, dist float64, q QueryOptions) ([]int, *Stats, error) {
	sample := target.SampleCuboid()
	pq := q
	pq.Paradigm = FPR
	pq.LODs = nil // visit every LOD
	// Profile under the static schedule: margin routing sends reject-leaning
	// pairs straight to the top LOD, which would zero out the intermediate
	// LODs' evaluation counts and bias the measured pruned fractions — the
	// profile must measure the paper's quantity.
	pq.Sched = SchedStatic

	var (
		stats *Stats
		err   error
	)
	switch kind {
	case IntersectKind:
		_, stats, err = e.IntersectJoin(ctx, sample, source, pq)
	case WithinKind:
		_, stats, err = e.WithinJoin(ctx, sample, source, dist, pq)
	case NNKind:
		_, stats, err = e.NNJoin(ctx, sample, source, pq)
	default:
		return nil, nil, fmt.Errorf("core: unknown query kind %d", kind)
	}
	if err != nil {
		return nil, nil, err
	}
	return profileLadder(stats, min(target.maxLOD, source.maxLOD)), stats, nil
}

// profileLadder is the ladder a fresh calibrator derives from one profiled
// run's statistics — the §4.4 rule written once, in calibrator.ladder:
// every LOD below maxLOD whose pruned fraction strictly exceeds
// DefaultPruneThreshold, plus maxLOD. A LOD that evaluated no pairs carries
// no evidence and is left out; a run with no evidence at all gets maxLOD
// alone, where a calibrator that never observed the pair would visit every
// LOD.
func profileLadder(st *Stats, maxLOD int) []int {
	var p calPair
	c := newCalibrator()
	c.observe(p, maxLOD, st)
	if len(c.cells) == 0 {
		return []int{maxLOD}
	}
	return c.ladder(p, maxLOD)
}
