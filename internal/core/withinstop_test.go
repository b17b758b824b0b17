package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/mesh"
)

// TestWithinStopKeepsStats runs a within join whose accepted pairs have
// up to thousands of face pairs inside dist — the evaluations the kernels stop on
// the first of — under every accelerator, paradigm and scheduler. The answer
// must be sdbms's, and the statistics that describe the ladder must be the
// values the exact kernels produced, recorded with this test before within
// evaluations stopped early: per-LOD pairs evaluated and pruned, candidates,
// bound-decided pairs and margin-skipped LODs.
func TestWithinStopKeepsStats(t *testing.T) {
	e := testEngine(t)
	opts := fastDatasetOptions()
	opts.PartitionTargetFaces = 16
	build := func(name string, ms []*mesh.Mesh) *Dataset {
		d, err := e.BuildDataset(name, ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	sphere := func(r float64, at geom.Vec3) *mesh.Mesh {
		m := mesh.Icosphere(r, 2)
		m.Translate(at)
		return m
	}
	// Overlapping nuclei, and far from them spheres that sit inside each
	// other (every face within 0.4 of the other surface), cross, stand 1.2
	// apart, stand far apart, or stand diagonally 2.0, 1.4 and 4.0 apart
	// with overlapping boxes (a top-LOD reject, an accept and a margin jump).
	gen := datagen.NucleiOptions{Count: 8, SubdivisionLevel: 1, Seed: 21}
	ta := datagen.Nuclei(gen)
	for _, x := range []float64{0, 20, 40, 80, 100, 120} {
		ta = append(ta, sphere(3, geom.V(x, 300, 0)))
	}
	gen.Seed, gen.Offset = 22, geom.V(2.5, 1.5, 1)
	diag := func(x, gap float64) geom.Vec3 { d := (5 + gap) / math.Sqrt(3); return geom.V(x+d, 300+d, d) }
	tb := append(datagen.Nuclei(gen), sphere(3.4, geom.V(0, 300, 0)), sphere(3, geom.V(20, 301, 0)), sphere(2, geom.V(40, 306.2, 0)),
		sphere(2, geom.V(60, 300, 0)), sphere(2, diag(80, 2)), sphere(2, diag(100, 1.4)), sphere(2, diag(120, 4)))
	a, b := build("stopA", ta), build("stopB", tb)
	const dist = 1.5

	want := newReference(t, a, b).withinJoin(t, dist)
	// The fixture does what it claims: the nested spheres are accepted with
	// over a thousand face pairs inside dist.
	if ma, mb := decodeAll(t, a)[8], decodeAll(t, b)[8]; !want[Pair{8, 8}] || countWithin(ma.SoA(), mb.SoA(), dist) < 1000 {
		t.Fatalf("fixture: nested spheres accepted %v with %d face pairs within %v", want[Pair{8, 8}], countWithin(ma.SoA(), mb.SoA(), dist), dist)
	}

	type ladder struct {
		Results, Candidates                 int64
		PairsEvaluated, PairsPruned         []int64
		LODsSkippedByMargin, BoundsDecisive int64
	}
	golden := map[string]ladder{
		"FR/static":  {12, 14, []int64{0, 0, 0, 14}, []int64{0, 0, 0, 14}, 0, 0},
		"FPR/static": {12, 14, []int64{14, 5, 3, 3}, []int64{9, 2, 0, 3}, 0, 0},
		"FPR/margin": {12, 14, []int64{14, 4, 2, 3}, []int64{9, 2, 0, 3}, 2, 0},
	}
	full := make([]int, a.MaxLOD()+1)
	for i := range full {
		full[i] = i
	}
	for _, s := range []struct {
		par   Paradigm
		sched Sched
	}{{FR, SchedStatic}, {FPR, SchedStatic}, {FPR, SchedMargin}} {
		for _, accel := range allAccels {
			q := QueryOptions{Paradigm: s.par, Sched: s.sched, Accel: accel, LODs: full}
			name := fmt.Sprintf("%v/%v/%v", s.par, s.sched, accel)
			got, st, err := e.WithinJoin(context.Background(), a, b, dist, q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameSets(t, name, got, want)
			key := fmt.Sprintf("%v/%v", s.par, s.sched)
			l := ladder{st.Results, st.Candidates, st.PairsEvaluated, st.PairsPruned, st.LODsSkippedByMargin, st.BoundsDecisive}
			if !reflect.DeepEqual(l, golden[key]) {
				t.Errorf("%s: ladder stats %+v, want %+v", name, l, golden[key])
			}
		}
	}
}

// countWithin counts the face pairs of a × b within dist of each other.
func countWithin(a, b *geom.TriSoA, dist float64) int {
	n := 0
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			if geom.TriTriDist2(a.At(i), b.At(j)) <= dist*dist {
				n++
			}
		}
	}
	return n
}

// TestStopBoundDecidesLikeExact holds every accelerator's within evaluation
// — seeded with a rung's bound and stopped at withinStop2(dist) — to the
// same accelerator's exact evaluation, over random and near-touching pairs
// of objects at units 10⁻³, 1 and 10³, with dist at the pair's exact
// distance and one float either side of it: the verdicts sqrt(d²) ≤ dist
// must agree, and where no face pair is within the stop bound the values
// must agree to the bit.
func TestStopBoundDecidesLikeExact(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(41))
	dir := func() geom.Vec3 {
		for {
			v := geom.V(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
			if n := v.Len(); n > 0.1 && n <= 1 {
				return v.Mul(1 / n)
			}
		}
	}
	// object places an icosphere and partitions it by four of its vertices,
	// so the partitioned accelerators run their group-pair search.
	object := func(r float64, level int, at geom.Vec3) obj {
		m := mesh.Icosphere(r, level)
		m.Translate(at)
		skel := [][]geom.Vec3{{m.Vertices[0], m.Vertices[3], m.Vertices[6], m.Vertices[9]}}
		return obj{ds: &Dataset{skeletons: skel}, mesh: m}
	}
	stoppable := 0 // evaluations at a positive distance the stop bound reaches
	for _, unit := range []float64{1e-3, 1, 1e3} {
		var gaps []float64 // surface gap, in units; below zero the two cross
		for i := 0; i < 6; i++ {
			gaps = append(gaps, rng.Float64()*3-0.5)
		}
		gaps = append(gaps, 0, 1e-12, 1e-9, 1e-6)
		for _, gap := range gaps {
			a := object(unit, 2, geom.Vec3{})
			b := object(0.7*unit, 1, dir().Mul((1.7+gap)*unit))
			exact2 := geom.MinDist2Batch(a.mesh.SoA(), b.mesh.SoA(), math.Inf(1))
			exact := math.Sqrt(exact2)
			for _, dist := range []float64{math.Nextafter(exact, 0), exact, math.Nextafter(exact, math.Inf(1))} {
				if exact2 > 0 && exact2 <= withinStop2(dist) {
					stoppable++
				}
				upper := dist * (1 + 1e-12) // the narrow rung of joinRun.upper
				for _, accel := range allAccels {
					q := QueryOptions{Accel: accel}
					ec := newEvalCtx(e, q, newCollector(0, q, time.Now()))
					want := ec.minDist(a, b, upper, 0)
					got := ec.minDist(a, b, upper, withinStop2(dist))
					where := fmt.Sprintf("unit %v gap %v dist %v (exact %v) %v", unit, gap, dist, exact, accel)
					if (want <= dist) != (exact <= dist) {
						t.Fatalf("%s: exact verdict %v from %v, brute force %v", where, want <= dist, want, exact <= dist)
					}
					if (got <= dist) != (want <= dist) {
						t.Errorf("%s: stopped verdict %v from %v, exact %v from %v", where, got <= dist, got, want <= dist, want)
					}
					if exact2 > withinStop2(dist) && math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s: nothing within the stop bound, yet the stopped value %v is not the exact %v", where, got, want)
					}
				}
			}
		}
	}
	if stoppable == 0 {
		t.Fatal("the stop bound never reached a positive distance; the test is vacuous")
	}
}
