package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// nearMissMeshes builds the warm-start stress workload: pairs of icospheres
// whose MBBs overlap (offset along the space diagonal) while their surfaces
// barely miss or barely graze. Such candidates cannot be settled at a low
// LOD — an intersection join finds no low-LOD face contact and a within
// join's low-LOD distance stays inconclusive — so they ride the FPR ladder
// through several refinement decodes, which is exactly the access pattern
// the cache's warm-start protocol accelerates. centerDist is the
// center-to-center distance of each pair (sphere radius is 4, so 8 means
// touching); pairs are spaced far apart so they never cross-match.
func nearMissMeshes(centerDists []float64) (ta, sa []*mesh.Mesh) {
	for i, cd := range centerDists {
		base := geom.V(float64(i)*40, 0, 0)
		a := mesh.Icosphere(4, 2)
		a.Translate(base)
		ta = append(ta, a)
		b := mesh.Icosphere(4, 2)
		d := cd / math.Sqrt(3)
		b.Translate(base.Add(geom.V(d, d, d)))
		sa = append(sa, b)
	}
	return ta, sa
}

func buildNearMissPair(t *testing.T, e *Engine, centerDists []float64) (*Dataset, *Dataset) {
	t.Helper()
	ma, mb := nearMissMeshes(centerDists)
	a, err := e.BuildDataset("nearA", ma, fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.BuildDataset("nearB", mb, fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestFPRWarmStartsProveReuse runs the same join under FR and FPR on one
// engine each and checks (a) identical results, (b) the FPR run's misses
// warm-start off geometry the cache holds (RoundsSkipped > 0), and (c) FPR's
// decoded rounds stay below the cold-path cost RoundsApplied + RoundsSkipped
// — the measurable form of "decoding to LOD k and later to LOD k+1 reuses
// the LOD-k state".
func TestFPRWarmStartsProveReuse(t *testing.T) {
	// Two grazing pairs (centers 7.7 < 8: thin overlap, invisible at low
	// LODs) and two near-miss pairs (8.5: disjoint, never settle positive).
	dists := []float64{7.7, 8.5, 7.7, 8.5}
	eFR, eFPR := testEngine(t), testEngine(t)
	runs := make(map[Paradigm]*Stats)
	var pairsFR, pairsFPR []Pair
	{
		a, b := buildNearMissPair(t, eFR, dists)
		var err error
		pairsFR, runs[FR], err = eFR.IntersectJoin(context.Background(), a, b, QueryOptions{Paradigm: FR})
		if err != nil {
			t.Fatal(err)
		}
	}
	{
		a, b := buildNearMissPair(t, eFPR, dists)
		var err error
		pairsFPR, runs[FPR], err = eFPR.IntersectJoin(context.Background(), a, b, QueryOptions{Paradigm: FPR})
		if err != nil {
			t.Fatal(err)
		}
	}

	if len(pairsFR) == 0 {
		t.Fatal("workload produced no intersecting pairs; grazing spheres should intersect at full LOD")
	}
	if len(pairsFR) != len(pairsFPR) {
		t.Fatalf("FR found %d pairs, FPR %d", len(pairsFR), len(pairsFPR))
	}
	for i := range pairsFR {
		if pairsFR[i] != pairsFPR[i] {
			t.Fatalf("pair %d: FR %v != FPR %v", i, pairsFR[i], pairsFPR[i])
		}
	}

	fpr := runs[FPR]
	if fpr.WarmStarts == 0 {
		t.Error("FPR run recorded no warm starts")
	}
	if fpr.RoundsSkipped == 0 {
		t.Error("FPR run skipped no rounds: decode state is not being reused")
	}
	if fpr.RoundsApplied == 0 {
		t.Error("FPR run applied no rounds")
	}
	// The warm-start win: replayed rounds < what a cold engine would replay
	// for the same misses.
	coldCost := fpr.RoundsApplied + fpr.RoundsSkipped
	if fpr.RoundsApplied >= coldCost {
		t.Errorf("RoundsApplied %d >= cold cost %d", fpr.RoundsApplied, coldCost)
	}

	// FR decodes only the top LOD cold: it must skip nothing.
	if runs[FR].RoundsSkipped != 0 {
		t.Errorf("FR run skipped %d rounds, want 0", runs[FR].RoundsSkipped)
	}
}

// TestWithinJoinWarmStarts checks the within-distance join also reuses
// decoded geometry under FPR with the AABB accelerator (the bounded dual-tree
// path).
func TestWithinJoinWarmStarts(t *testing.T) {
	// Threshold 6 between radius-4 spheres: surface gaps of ~5.6 and ~6.4
	// straddle it, so low-LOD distances (always ≥ the true distance) stay
	// above 6 and the candidates refine upward.
	dists := []float64{13.6, 14.4, 13.6, 14.4}
	e := testEngine(t)
	a, b := buildNearMissPair(t, e, dists)
	pairsFPR, st, err := e.WithinJoin(context.Background(), a, b, 6, QueryOptions{Paradigm: FPR, Accel: AABB})
	if err != nil {
		t.Fatal(err)
	}
	if st.RoundsSkipped == 0 {
		t.Error("FPR within join skipped no rounds")
	}
	if len(pairsFPR) == 0 {
		t.Fatal("no pairs within 6; gap-5.6 pairs should match")
	}
	// Same answer as brute-force FR on a fresh engine.
	e2 := testEngine(t)
	a2, b2 := buildNearMissPair(t, e2, dists)
	pairsFR, _, err := e2.WithinJoin(context.Background(), a2, b2, 6, QueryOptions{Paradigm: FR})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairsFR) != len(pairsFPR) {
		t.Fatalf("FR found %d pairs, FPR+AABB %d", len(pairsFR), len(pairsFPR))
	}
	for i := range pairsFR {
		if pairsFR[i] != pairsFPR[i] {
			t.Fatalf("pair %d: FR %v != FPR %v", i, pairsFR[i], pairsFPR[i])
		}
	}
}
