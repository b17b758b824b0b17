package gpusim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
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

func TestEvalPairBatchHostClosures(t *testing.T) {
	d := New(2, 0)
	defer d.Close()
	boom := errors.New("boom")
	tasks := []PairTask{
		{Kind: PairHost, Fn: func() PairVerdict { return PairVerdict{Hit: true} }},
		{Kind: PairHost, Fn: func() PairVerdict { return PairVerdict{D2: 2.5} }},
		{Kind: PairHost, Fn: func() PairVerdict { return PairVerdict{Err: boom} }},
		{Kind: PairHost, Fn: func() PairVerdict { panic("kernel oops") }},
	}
	verdicts := make([]PairVerdict, len(tasks))
	d.EvalPairBatch(tasks, verdicts, nil)
	if !verdicts[0].Hit {
		t.Fatal("host hit verdict lost")
	}
	if verdicts[1].D2 != 2.5 {
		t.Fatalf("host dist verdict %v want 2.5", verdicts[1].D2)
	}
	if !errors.Is(verdicts[2].Err, boom) {
		t.Fatalf("host error verdict %v want boom", verdicts[2].Err)
	}
	if verdicts[3].Err == nil {
		t.Fatal("kernel panic not captured into verdict")
	}
}

func TestStreamOrderAndBackpressure(t *testing.T) {
	d := New(1, 0)
	defer d.Close()
	s := d.NewStream()

	// Submit more launches than StreamDepth from a second goroutine; the
	// main goroutine collects in order. Tags prove FIFO delivery.
	const n = StreamDepth * 3
	go func() {
		for i := 0; i < n; i++ {
			s.Submit([]PairTask{{Kind: PairHost, Tag: i, Fn: func() PairVerdict { return PairVerdict{Hit: true} }}})
		}
		s.CloseSubmit()
	}()
	for i := 0; i < n; i++ {
		tasks, verdicts, ok := s.Collect()
		if !ok {
			t.Fatalf("stream drained after %d launches, want %d", i, n)
		}
		if got := tasks[0].Tag.(int); got != i {
			t.Fatalf("launch %d collected out of order (tag %d)", i, got)
		}
		if !verdicts[0].Hit {
			t.Fatal("verdict lost in stream")
		}
		d.PutVerdicts(verdicts)
	}
	if _, _, ok := s.Collect(); ok {
		t.Fatal("Collect reported a launch after drain")
	}
}

// TestStreamAbortStopsKernels submits to an aborted stream a task whose A
// has no box lanes: a kernel that ran would index them, panic, and leave
// the panic in the verdict — as the same task shows on a live stream.
func TestStreamAbortStopsKernels(t *testing.T) {
	d := New(2, 8)
	defer d.Close()
	rng := rand.New(rand.NewSource(9))
	poisoned := &geom.TriSoA{AX: make([]float64, 40)}
	b := randSoA(rng, 40, 100)
	run := func(abort bool) (PairVerdict, int64) {
		s := d.NewStream()
		if abort {
			s.Abort()
		}
		var ran atomic.Int64
		s.Submit([]PairTask{
			{Kind: PairMinDist, A: poisoned, B: b.SoA, Upper2: math.Inf(1)},
			{Kind: PairHost, Fn: func() PairVerdict { ran.Add(1); return PairVerdict{} }},
		})
		s.CloseSubmit()
		_, verdicts, _ := s.Collect()
		v := verdicts[0]
		d.PutVerdicts(verdicts)
		return v, ran.Load()
	}
	if v, ran := run(false); v.Err == nil || ran != 1 {
		t.Fatalf("live stream: kernel error %v, host closure ran %d times; want a captured panic and one run", v.Err, ran)
	}
	if v, ran := run(true); v.Err != nil || ran != 0 {
		t.Fatalf("aborted stream: kernel error %v, host closure ran %d times; want neither", v.Err, ran)
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
