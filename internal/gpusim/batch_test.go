package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
)

func randSoA(rng *rand.Rand, n int, cx float64) *TriPair {
	ts := make([]geom.Triangle, n)
	for i := range ts {
		p := func() geom.Vec3 {
			return geom.Vec3{
				X: cx + (rng.Float64()*2-1)*2,
				Y: (rng.Float64()*2 - 1) * 2,
				Z: (rng.Float64()*2 - 1) * 2,
			}
		}
		ts[i] = geom.Triangle{A: p(), B: p(), C: p()}
	}
	return &TriPair{Tris: ts, SoA: geom.SoAFromTriangles(ts)}
}

// TriPair bundles the AoS and SoA views for the reference comparisons.
type TriPair struct {
	Tris []geom.Triangle
	SoA  *geom.TriSoA
}

func TestEvalPairBatchMatchesReference(t *testing.T) {
	d := New(2, 64) // small batch size to force multi-kernel tasks
	defer d.Close()
	rng := rand.New(rand.NewSource(7))

	for round := 0; round < 50; round++ {
		sep := 5.0 * (1 - float64(round)/40.0)
		a := randSoA(rng, 3+rng.Intn(15), 0)
		b := randSoA(rng, 3+rng.Intn(15), sep)

		wantHit := geom.IntersectsBatch(a.SoA, b.SoA)
		wantD2 := geom.MinDist2Batch(a.SoA, b.SoA, math.Inf(1))

		tasks := []PairTask{
			{Kind: PairIntersect, A: a.SoA, B: b.SoA},
			{Kind: PairMinDist, A: a.SoA, B: b.SoA, Upper2: math.Inf(1)},
			{Kind: PairMinDist, A: a.SoA, B: b.SoA, Upper2: wantD2 * 0.5},
		}
		verdicts := make([]PairVerdict, len(tasks))
		d.EvalPairBatch(tasks, verdicts, nil)

		if verdicts[0].Hit != wantHit {
			t.Fatalf("round %d: intersect verdict %v want %v", round, verdicts[0].Hit, wantHit)
		}
		if verdicts[1].D2 != wantD2 {
			t.Fatalf("round %d: exact dist %v want %v", round, verdicts[1].D2, wantD2)
		}
		// Bound tighter than the true minimum: the seed must come back.
		if wantD2 > 0 && verdicts[2].D2 != wantD2*0.5 {
			t.Fatalf("round %d: bounded dist %v want seed %v", round, verdicts[2].D2, wantD2*0.5)
		}
	}
}

var sinkD2 float64

// BenchmarkEvalPairBatch measures what the worker-pool dispatch costs or
// buys: one batch of distance tasks — every nucleus of a small tissue
// against a vessel, unbounded, as the repository benchmark's probe submits
// them — through EvalPairBatch, and the same tasks run one after another
// through the range kernel on the calling goroutine, at GOMAXPROCS 2 and 4.
// "device" over "direct" below 1 means the dispatch pays for itself.
func BenchmarkEvalPairBatch(b *testing.B) {
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(100, 100, 100)}
	nuclei, vessels := datagen.Tissue(datagen.TissueOptions{
		Nuclei:  datagen.NucleiOptions{Count: 27, SubdivisionLevel: 2, Space: space, Seed: 45},
		Vessels: datagen.VesselOptions{Count: 2, Space: space, Seed: 46, RingSegments: 12, PathPoints: 12},
	})
	tasks := make([]PairTask, len(nuclei))
	for i, n := range nuclei {
		tasks[i] = PairTask{Kind: PairMinDist, A: n.SoA(), B: vessels[0].SoA(), Upper2: math.Inf(1)}
	}
	verdicts := make([]PairVerdict, len(tasks))

	for _, procs := range []int{2, 4} {
		b.Run(fmt.Sprintf("procs=%d/device", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			dev := New(0, 0)
			defer dev.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dev.EvalPairBatch(tasks, verdicts, nil)
			}
		})
		b.Run(fmt.Sprintf("procs=%d/direct", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < b.N; i++ {
				for _, t := range tasks {
					sinkD2 = geom.MinDist2BatchRange(t.A, t.B, 0, t.A.Len()*t.B.Len(), t.Upper2, t.Stop2)
				}
			}
		})
	}
}
