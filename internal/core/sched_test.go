package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// runJoin executes one join kind under q and returns its results in a
// comparable form plus the stats.
func runJoin(t *testing.T, e *Engine, kind QueryKind, target, source *Dataset, dist float64, q QueryOptions) (any, *Stats) {
	t.Helper()
	switch kind {
	case IntersectKind:
		pairs, st, err := e.IntersectJoin(context.Background(), target, source, q)
		if err != nil {
			t.Fatal(err)
		}
		return pairs, st
	case WithinKind:
		pairs, st, err := e.WithinJoin(context.Background(), target, source, dist, q)
		if err != nil {
			t.Fatal(err)
		}
		return pairs, st
	default:
		ns, st, err := e.NNJoin(context.Background(), target, source, q)
		if err != nil {
			t.Fatal(err)
		}
		return ns, st
	}
}

// TestMarginStaticEquivalence is the margin scheduler's core contract: for
// every query kind, under FailFast and the Degrade policy (no faults
// injected), SchedMargin returns byte-identical results to the SchedStatic
// reference — including repeated margin runs, which exercise the
// online-calibrated ladders the first run seeds.
func TestMarginStaticEquivalence(t *testing.T) {
	e := testEngine(t)
	ia, ib := buildPair(t, e)         // overlapping: intersection workload
	wa, wb := buildDisjointPair(t, e) // interior-disjoint: distance workloads
	const dist = 12.0

	cases := []struct {
		kind           QueryKind
		target, source *Dataset
	}{
		{IntersectKind, ia, ib},
		{WithinKind, wa, wb},
		{NNKind, wa, wb},
		// Self-joins: every candidate pair straddles the d(x,x)=0 /
		// intersects(x,x) edge, where an unsound bound shortcut would show.
		{IntersectKind, ia, ia},
		{WithinKind, wa, wa},
	}
	for _, c := range cases {
		for _, policy := range []ErrorPolicy{FailFast, Degrade} {
			q := QueryOptions{Paradigm: FPR, OnError: policy}
			q.Sched = SchedStatic
			want, _ := runJoin(t, e, c.kind, c.target, c.source, dist, q)
			// Three margin runs: run 1 on the uncalibrated full ladder,
			// runs 2-3 on ladders derived from the calibrator it fed.
			for i := 0; i < 3; i++ {
				q.Sched = SchedMargin
				got, _ := runJoin(t, e, c.kind, c.target, c.source, dist, q)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v/%v margin run %d: results differ from static\n got %v\nwant %v",
						c.kind, policy, i, got, want)
				}
			}
		}
	}
}

// TestCalibrationPerPair runs within joins over two dataset pairs,
// interleaved on one engine, and checks that each pair's calibration — and
// so its ladder — is exactly what an engine running that pair alone
// learns, that the two ladders differ (a per-kind pool would give both the
// same one), and that every answer equals the SchedStatic reference.
func TestCalibrationPerPair(t *testing.T) {
	type pair struct {
		build func(*testing.T, *Engine) (*Dataset, *Dataset)
		dist  float64
	}
	pairs := []pair{
		{buildDisjointPair, 12},
		{func(t *testing.T, e *Engine) (*Dataset, *Dataset) {
			return buildNearMissPair(t, e, []float64{8.5, 9.5, 8.5})
		}, 0.2},
	}
	const rounds = 6
	// round runs one static and one margin query of a pair (both feed the
	// calibrator) and checks they agree.
	round := func(e *Engine, a, b *Dataset, dist float64) {
		want, _ := runJoin(t, e, WithinKind, a, b, dist, QueryOptions{Paradigm: FPR, Sched: SchedStatic})
		got, _ := runJoin(t, e, WithinKind, a, b, dist, QueryOptions{Paradigm: FPR})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s × %s: margin results differ from static\n got %v\nwant %v", a.Name, b.Name, got, want)
		}
	}
	shared := testEngine(t)
	var sharedDS [][2]*Dataset
	for _, p := range pairs {
		a, b := p.build(t, shared)
		sharedDS = append(sharedDS, [2]*Dataset{a, b})
	}
	for r := 0; r < rounds; r++ {
		for i, p := range pairs {
			round(shared, sharedDS[i][0], sharedDS[i][1], p.dist)
		}
	}
	all := shared.SchedCalibration()
	var ladders [][]int
	for i, p := range pairs {
		alone := testEngine(t)
		a, b := p.build(t, alone)
		for r := 0; r < rounds; r++ {
			round(alone, a, b, p.dist)
		}
		var mine []CalibrationEntry
		for _, ce := range all {
			if ce.Target == a.Name && ce.Source == b.Name {
				mine = append(mine, ce)
			}
		}
		if len(mine) == 0 {
			t.Fatalf("pair %d (%s × %s): no calibration cells in %+v", i, a.Name, b.Name, all)
		}
		if wantCal := alone.SchedCalibration(); !reflect.DeepEqual(mine, wantCal) {
			t.Errorf("pair %d (%s × %s): interleaved calibration %+v, alone %+v", i, a.Name, b.Name, mine, wantCal)
		}
		top := min(a.maxLOD, b.maxLOD)
		cp := pairOf(WithinKind, a, b)
		got, want := shared.cal.ladder(cp, top), alone.cal.ladder(cp, top)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pair %d: interleaved ladder %v, alone %v", i, got, want)
		}
		ladders = append(ladders, got)
	}
	if reflect.DeepEqual(ladders[0], ladders[1]) {
		t.Errorf("both pairs got ladder %v; the workload no longer tells per-pair calibration from a pool", ladders[0])
	}
}

// TestMarginSkipsLODsOnNearMisses pins the tentpole's work-saving mechanism:
// on a workload of box-overlapping near-misses whose measured distance sits
// far above the threshold at every LOD, the margin scheduler routes pairs
// straight to the top LOD (LODsSkippedByMargin > 0) while returning exactly
// the static answer.
func TestMarginSkipsLODsOnNearMisses(t *testing.T) {
	e := testEngine(t)
	// Radius-4 spheres, centers 8.5 and 9.5 apart: boxes overlap (the filter
	// keeps the pairs) but surface gaps are ~0.5 and ~1.5. With dist = 0.2
	// every measured distance exceeds marginJumpFactor·dist, so each pair
	// jumps past the intermediate LODs it would otherwise walk.
	a, b := buildNearMissPair(t, e, []float64{8.5, 9.5, 8.5})
	const dist = 0.2

	// Margin runs first, on the uncalibrated full ladder: each pair starts
	// at LOD 0 and jumps. (After a run has fed the calibrator, the ladder
	// itself drops the unproductive low LODs and there is nothing left to
	// jump over — that regime is covered by the equivalence test.)
	margin := QueryOptions{Paradigm: FPR, Sched: SchedMargin}
	gotPairs, gotStats, err := e.WithinJoin(context.Background(), a, b, dist, margin)
	if err != nil {
		t.Fatal(err)
	}
	static := QueryOptions{Paradigm: FPR, Sched: SchedStatic}
	wantPairs, wantStats, err := e.WithinJoin(context.Background(), a, b, dist, static)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Errorf("margin results differ from static: got %v want %v", gotPairs, wantPairs)
	}
	if gotStats.LODsSkippedByMargin == 0 {
		t.Errorf("margin run skipped no LODs on a jump-heavy workload; stats: %v", gotStats)
	}
	if wantStats.LODsSkippedByMargin != 0 {
		t.Errorf("static run reported %d margin-skipped LODs, want 0", wantStats.LODsSkippedByMargin)
	}
}

// TestBoundsDecisiveWithin pins the bounds-only settles: a within threshold
// large enough that many pairs satisfy MAXDIST ≤ dist settles those pairs
// with no decode, counted in Stats.BoundsDecisive under both schedulers
// (the filter's definite acceptances are bounds verdicts too), with
// identical results.
func TestBoundsDecisiveWithin(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)
	// Large relative to the nuclei spacing in the 60³ space: MAXDIST of the
	// closest box pairs drops under it.
	const dist = 40.0

	static := QueryOptions{Paradigm: FPR, Sched: SchedStatic}
	wantPairs, wantStats, err := e.WithinJoin(context.Background(), a, b, dist, static)
	if err != nil {
		t.Fatal(err)
	}
	margin := QueryOptions{Paradigm: FPR, Sched: SchedMargin}
	gotPairs, gotStats, err := e.WithinJoin(context.Background(), a, b, dist, margin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Errorf("margin results differ from static: got %v want %v", gotPairs, wantPairs)
	}
	if len(wantPairs) == 0 {
		t.Fatal("workload produced no within pairs at dist=40; test is vacuous")
	}
	if gotStats.BoundsDecisive == 0 {
		t.Errorf("margin run settled no pairs from bounds at dist=%v; stats: %v", dist, gotStats)
	}
	if wantStats.BoundsDecisive == 0 {
		t.Errorf("static run settled no pairs from bounds at dist=%v; stats: %v", dist, wantStats)
	}
}

// TestCalibratorObserveAndLadder unit-tests the online model: seeding,
// EWMA updates, ladder selection against the §4.4 threshold, and that LODs
// with no evaluated pairs contribute no observation.
func TestCalibratorObserveAndLadder(t *testing.T) {
	c := newCalibrator()
	p := calPair{WithinKind, "nuclei", "vessels"}

	// Unseeded pair: full ladder.
	if got, want := c.ladder(p, 3), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unseeded ladder = %v, want %v", got, want)
	}

	// One observation: LOD 0 prunes 60% (> threshold), LOD 1 prunes 10%
	// (≤ threshold), LOD 2 evaluated nothing (absent, probed on cadence).
	st := &Stats{
		PairsEvaluated: []int64{10, 10, 0, 5},
		PairsPruned:    []int64{6, 1, 0, 5},
	}
	c.observe(p, 3, st)
	if got, want := c.ladder(p, 3), []int{0, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("calibrated ladder = %v, want %v", got, want)
	}

	// Other kinds and other pairs of the kind stay unseeded — the model is
	// per (kind, dataset pair).
	for _, other := range []calPair{
		{NNKind, "nuclei", "vessels"},
		{WithinKind, "nuclei", "nuclei"},
		{WithinKind, "vessels", "nuclei"},
	} {
		if got, want := c.ladder(other, 3), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
			t.Fatalf("ladder of %+v = %v, want %v", other, got, want)
		}
	}

	// EWMA pulls LOD 0 under the threshold after repeated zero-prune
	// queries: (0.8)^n · 0.6 < 0.25 within a dozen observations.
	zero := &Stats{PairsEvaluated: []int64{10}, PairsPruned: []int64{0}}
	for i := 0; i < 12; i++ {
		c.observe(p, 3, zero)
	}
	if got, want := c.ladder(p, 3), []int{3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("post-decay ladder = %v, want %v", got, want)
	}
}

// TestCalibratorSeparatesPairs pins the per-pair key: two dataset pairs of
// one kind, one pruning 60% at LOD 0 and the other 10%, keep separate
// ladders however their observations interleave — a pooled estimate would
// give both the same one.
func TestCalibratorSeparatesPairs(t *testing.T) {
	c := newCalibrator()
	near := calPair{WithinKind, "nuclei", "nuclei"}
	far := calPair{WithinKind, "nuclei", "vessels"}
	for i := 0; i < 10; i++ {
		c.observe(near, 2, &Stats{PairsEvaluated: []int64{10, 4, 4}, PairsPruned: []int64{6, 2, 4}})
		c.observe(far, 2, &Stats{PairsEvaluated: []int64{10, 9, 9}, PairsPruned: []int64{1, 1, 9}})
	}
	if got, want := c.ladder(near, 2), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("60%%-pruning pair's ladder = %v, want %v", got, want)
	}
	if got, want := c.ladder(far, 2), []int{2}; !reflect.DeepEqual(got, want) {
		t.Errorf("10%%-pruning pair's ladder = %v, want %v", got, want)
	}
}

// TestCalibratorObservesBelowTopOnly pins that a query's top LOD, where
// every pair settles, leaves no estimate: recorded, the ≈ 100% fraction
// would keep that LOD on the ladder of a query of the pair with a higher
// top.
func TestCalibratorObservesBelowTopOnly(t *testing.T) {
	c := newCalibrator()
	p := calPair{WithinKind, "nuclei", "vessels"}
	c.observe(p, 2, &Stats{PairsEvaluated: []int64{13, 0, 13}, PairsPruned: []int64{1, 0, 13}})
	if got := (&Engine{cal: c}).SchedCalibration(); len(got) != 1 || got[0].LOD != 0 {
		t.Errorf("calibration = %+v, want one LOD 0 cell (the top-LOD pass creates none)", got)
	}
	// A later query of the pair whose top is higher sees LOD 2 as
	// unobserved, not as a 100%-pruning rung.
	if got, want := c.ladder(p, 3), []int{3}; !reflect.DeepEqual(got, want) {
		t.Errorf("ladder with a higher top = %v, want %v", got, want)
	}
}

// TestCalibratorProbesDroppedLODs pins the anti-freeze rule: an excluded
// LOD is re-included every calProbeEvery consecutive exclusions so its
// estimate can recover after a workload shift.
func TestCalibratorProbesDroppedLODs(t *testing.T) {
	c := newCalibrator()
	p := calPair{WithinKind, "a", "b"}
	// Seed LOD 0 below the threshold so the ladder drops it.
	c.observe(p, 1, &Stats{PairsEvaluated: []int64{10, 10}, PairsPruned: []int64{0, 10}})

	probes := 0
	for i := 0; i < 2*calProbeEvery; i++ {
		lods := c.ladder(p, 1)
		for _, l := range lods {
			if l == 0 {
				probes++
			}
		}
	}
	if probes != 2 {
		t.Fatalf("LOD 0 probed %d times over %d ladders, want exactly 2 (every %d)",
			probes, 2*calProbeEvery, calProbeEvery)
	}
}

// TestScheduleRouting pins which queries take the static path: FR, explicit
// LODs, and SchedStatic never consult the calibrator; a margin query gets
// its own pair's ladder.
func TestScheduleRouting(t *testing.T) {
	e := testEngine(t)
	// Bias the calibrator so a calibrated ladder is distinguishable from the
	// full one.
	p := calPair{WithinKind, "a", "b"}
	e.cal.observe(p, 2, &Stats{PairsEvaluated: []int64{10, 10}, PairsPruned: []int64{0, 10}})

	full := []int{0, 1, 2}
	cases := []struct {
		name string
		q    QueryOptions
		p    calPair
		want []int
	}{
		{"fr", QueryOptions{Paradigm: FR}, p, []int{2}},
		{"static", QueryOptions{Paradigm: FPR, Sched: SchedStatic}, p, full},
		{"explicit", QueryOptions{Paradigm: FPR, LODs: []int{1}}, p, []int{1, 2}},
		{"margin", QueryOptions{Paradigm: FPR}, p, []int{1, 2}}, // calibrated: LOD 0 dropped, LOD 1 kept
		{"margin-other-pair", QueryOptions{Paradigm: FPR}, calPair{WithinKind, "a", "c"}, full},
	}
	for _, c := range cases {
		if got := e.schedule(&c.q, 2, c.p); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: schedule = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPlanWithinBounds unit-tests the sound pre-ladder verdicts.
func TestPlanWithinBounds(t *testing.T) {
	box := func(x0, x1 float64) geom.Box3 {
		return geom.Box3{Min: geom.V(x0, 0, 0), Max: geom.V(x1, 1, 1)}
	}
	a := box(0, 1)
	cases := []struct {
		name string
		b    geom.Box3
		dist float64
		want pairPlan
	}{
		// MAXDIST(a,b) bounded by the boxes' corner spread; overlapping unit
		// boxes within dist 10 must accept from bounds alone.
		{"accept", box(0.5, 1.5), 10, planAccept},
		{"reject", box(5, 6), 1, planReject}, // MINDIST 4 > 1
		{"walk", box(1.5, 2.5), 1, planWalk}, // MINDIST 0.5 ≤ 1 < MAXDIST
	}
	for _, c := range cases {
		if got := planWithin(a, c.b, c.dist); got != c.want {
			t.Errorf("%s: planWithin = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPlanIntersectDegenerateContact unit-tests the direct-routing rule:
// only zero-volume MBB contact routes to the top LOD.
func TestPlanIntersectDegenerateContact(t *testing.T) {
	unit := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(1, 1, 1)}
	touching := geom.Box3{Min: geom.V(1, 0, 0), Max: geom.V(2, 1, 1)} // shares the x=1 face
	overlapping := geom.Box3{Min: geom.V(0.5, 0, 0), Max: geom.V(2, 1, 1)}
	if got := planIntersect(unit, touching); got != planDirect {
		t.Errorf("face contact: planIntersect = %v, want planDirect", got)
	}
	if got := planIntersect(unit, overlapping); got != planWalk {
		t.Errorf("volume overlap: planIntersect = %v, want planWalk", got)
	}
	if got := planIntersect(unit, unit); got != planWalk {
		t.Errorf("identical boxes: planIntersect = %v, want planWalk", got)
	}
}

// TestSelectLODsBoundary pins the §4.4 rule's fixed comparison, as
// ProfileLODs applies it (profileLadder): a pruned fraction exactly at the
// threshold (1/r² with r=2 → 0.25) does NOT select the LOD — the paper's criterion is "greater than", and refining at
// exactly the break-even fraction saves nothing.
func TestSelectLODsBoundary(t *testing.T) {
	st := &Stats{
		PairsEvaluated: []int64{4, 4, 4, 1},
		PairsPruned:    []int64{1, 2, 0, 1}, // fractions 0.25, 0.5, 0
	}
	if got, want := profileLadder(st, 3), []int{1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("profileLadder = %v, want %v (exactly-threshold LOD 0 must be excluded)", got, want)
	}
}

// TestSelectLODsSkipsUnevaluated pins profileLadder's zero-evaluated-LOD
// rule: a LOD at
// which no pairs were evaluated (all candidates settled below it) carries
// no pruning evidence and is never selected, and the empty-stats edge
// degenerates to the top LOD alone.
func TestSelectLODsSkipsUnevaluated(t *testing.T) {
	st := &Stats{
		PairsEvaluated: []int64{4, 0, 4, 1},
		PairsPruned:    []int64{4, 0, 4, 1},
	}
	if got, want := profileLadder(st, 3), []int{0, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("profileLadder = %v, want %v (unevaluated LOD 1 must be skipped)", got, want)
	}
	if got, want := profileLadder(&Stats{}, 3), []int{3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("profileLadder on empty stats = %v, want %v", got, want)
	}
}
