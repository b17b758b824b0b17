package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/leakcheck"
	"repro/internal/ppvp"
	"repro/internal/shard"
)

func testEngineOptions() core.EngineOptions {
	return core.EngineOptions{CacheBytes: 64 << 20, Workers: 4}
}

func fastDatasetOptions() core.DatasetOptions {
	c := ppvp.DefaultOptions()
	c.Rounds = 6
	return core.DatasetOptions{Compression: c, Cuboids: 8, PartitionTargetFaces: 64}
}

// buildPair ingests two overlapping nuclei datasets (intersection work).
func buildPair(t *testing.T, e *core.Engine) (*core.Dataset, *core.Dataset) {
	t.Helper()
	gen := datagen.NucleiOptions{Count: 12, SubdivisionLevel: 1, Seed: 21}
	a, err := e.BuildDataset("nucleiA", datagen.Nuclei(gen), fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	gen2 := gen
	gen2.Seed = 22
	gen2.Offset = geom.V(2.5, 1.5, 1)
	b, err := e.BuildDataset("nucleiB", datagen.Nuclei(gen2), fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// buildDisjointPair ingests two interior-disjoint datasets (distance work).
func buildDisjointPair(t *testing.T, e *core.Engine) (*core.Dataset, *core.Dataset) {
	t.Helper()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(60, 60, 60)}
	ma, mb := datagen.NucleiPair(datagen.NucleiOptions{Count: 10, SubdivisionLevel: 1, Seed: 31, Space: space})
	a, err := e.BuildDataset("disjA", ma, fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.BuildDataset("disjB", mb, fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// sameSlice compares result slices, treating nil and empty as equal (the
// coordinator concatenates into a nil slice when every shard is empty).
func sameSlice[T any](got, want []T) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

// sameAnswer fails the test unless c answered want without error.
func sameAnswer[T any](t *testing.T, c *shard.Coordinator, got, want []T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("replicas %d: %v", c.Replicas(), err)
	}
	if !sameSlice(got, want) {
		t.Fatalf("replicas %d: sharded answer differs:\n got %v\nwant %v", c.Replicas(), got, want)
	}
}

// TestShardedEquivalence proves the coordinator's scatter-gather over HTTP
// workers returns byte-for-byte the single-engine answer for every query
// kind, including self-joins (whose cross-shard pairs exercise the loan path
// heavily), with single-copy placement.
func TestShardedEquivalence(t *testing.T) {
	checkShardedEquivalence(t, 1)
}

// TestShardedEquivalenceHTTP is TestShardedEquivalence with replicated
// placement on (Replicas 2): every group lives on two workers, so the
// answers must not depend on which copy serves a leg or a loan.
func TestShardedEquivalenceHTTP(t *testing.T) {
	checkShardedEquivalence(t, 2)
}

// checkShardedEquivalence runs every query kind on a 4-worker loopback
// cluster with the given replication and compares each answer with the
// single engine's.
func checkShardedEquivalence(t *testing.T, replicas int) {
	leakcheck.Check(t)
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	da, db := buildDisjointPair(t, e)
	c := startHTTPCluster(t, shard.Options{Shards: 4, Replicas: replicas}, a, b, da, db).coord
	ctx := context.Background()
	q := core.QueryOptions{}

	t.Run("intersect", func(t *testing.T) {
		sameCounts(t, q, func(q core.QueryOptions) (*core.Stats, *core.Stats) {
			want, wst, err := e.IntersectJoin(ctx, a, b, q)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", q)
			sameAnswer(t, c, got, want, err)
			return wst, gst
		})
	})
	t.Run("intersect-self", func(t *testing.T) {
		sameCounts(t, q, func(q core.QueryOptions) (*core.Stats, *core.Stats) {
			want, wst, err := e.IntersectJoin(ctx, a, a, q)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := c.IntersectJoin(ctx, "nucleiA", "nucleiA", q)
			sameAnswer(t, c, got, want, err)
			return wst, gst
		})
	})
	t.Run("within", func(t *testing.T) {
		sameCounts(t, q, func(q core.QueryOptions) (*core.Stats, *core.Stats) {
			want, wst, err := e.WithinJoin(ctx, da, db, 8, q)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := c.WithinJoin(ctx, "disjA", "disjB", 8, q)
			sameAnswer(t, c, got, want, err)
			return wst, gst
		})
	})
	t.Run("nn", func(t *testing.T) {
		sameCounts(t, q, func(q core.QueryOptions) (*core.Stats, *core.Stats) {
			want, wst, err := e.NNJoin(ctx, da, db, q)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := c.KNNJoin(ctx, "disjA", "disjB", q)
			sameAnswer(t, c, got, want, err)
			return wst, gst
		})
	})
	t.Run("knn", func(t *testing.T) {
		kq := q
		kq.K = 3
		sameCounts(t, kq, func(q core.QueryOptions) (*core.Stats, *core.Stats) {
			want, wst, err := e.KNNJoin(ctx, da, db, q)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := c.KNNJoin(ctx, "disjA", "disjB", q)
			sameAnswer(t, c, got, want, err)
			return wst, gst
		})
	})
	t.Run("knn-self", func(t *testing.T) {
		kq := q
		kq.K = 2
		sameCounts(t, kq, func(q core.QueryOptions) (*core.Stats, *core.Stats) {
			want, wst, err := e.KNNJoin(ctx, da, da, q)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := c.KNNJoin(ctx, "disjA", "disjA", q)
			sameAnswer(t, c, got, want, err)
			return wst, gst
		})
	})
	t.Run("range", func(t *testing.T) {
		bounds := a.Tree().Bounds()
		box := geom.Box3{Min: bounds.Min, Max: bounds.Min.Lerp(bounds.Max, 0.5)}
		want, _, err := e.RangeQuery(ctx, a, box, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.RangeQuery(ctx, "nucleiA", box, q)
		sameAnswer(t, c, got, want, err)
	})
	t.Run("contains", func(t *testing.T) {
		p := a.Tileset.Object(0).MBB().Center()
		want, _, err := e.ContainingObjects(ctx, a, p, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.ContainingObjects(ctx, "nucleiA", p, q)
		sameAnswer(t, c, got, want, err)
	})
	// Routed point and range queries: the same answer, candidate and result
	// counts as the single engine, for random probes across the dataset.
	t.Run("routed-random", func(t *testing.T) {
		bounds := a.Tree().Bounds()
		rng := rand.New(rand.NewSource(7))
		at := func() geom.Vec3 {
			return geom.V(
				bounds.Min.X+rng.Float64()*(bounds.Max.X-bounds.Min.X),
				bounds.Min.Y+rng.Float64()*(bounds.Max.Y-bounds.Min.Y),
				bounds.Min.Z+rng.Float64()*(bounds.Max.Z-bounds.Min.Z))
		}
		same := func(what string, c *shard.Coordinator, got, want []int64, gst, wst *core.Stats) {
			t.Helper()
			if !sameSlice(got, want) || gst.Candidates != wst.Candidates || gst.Results != wst.Results {
				t.Fatalf("%s, replicas %d: sharded %v (candidates %d, results %d), single engine %v (%d, %d)",
					what, c.Replicas(), got, gst.Candidates, gst.Results, want, wst.Candidates, wst.Results)
			}
		}
		for i := 0; i < 40; i++ {
			p := at()
			want, wst, err := e.ContainingObjects(ctx, a, p, q)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := c.ContainingObjects(ctx, "nucleiA", p, q)
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("point %v", p), c, got, want, gst, wst)

			r := 1 + 6*rng.Float64()
			box := geom.Box3{Min: p.Sub(geom.V(r, r, r)), Max: p.Add(geom.V(r, r, r))}
			want, wst, err = e.RangeQuery(ctx, a, box, q)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err = c.RangeQuery(ctx, "nucleiA", box, q)
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("box %v", box), c, got, want, gst, wst)
		}
	})
	// A box meeting no MBB sends no leg and answers empty without error.
	t.Run("range-miss", func(t *testing.T) {
		far := a.Tree().Bounds().Max.Add(geom.V(10, 10, 10))
		calls := c.Metrics().ShardCalls
		got, st, err := c.RangeQuery(ctx, "nucleiA", geom.Box3{Min: far, Max: far.Add(geom.V(5, 5, 5))}, q)
		if err != nil || len(got) != 0 {
			t.Fatalf("box beyond every MBB: got %v, err %v", got, err)
		}
		if n := c.Metrics().ShardCalls - calls; n != 0 {
			t.Fatalf("box beyond every MBB made %d shard calls, want 0", n)
		}
		for _, ss := range st.Shards {
			if ss.Status != "skipped" {
				t.Fatalf("shard %d status %q, want skipped", ss.Shard, ss.Status)
			}
		}
	})
}

// sameCounts runs one join on the single engine and the coordinator —
// run compares the answers and returns the single engine's Stats, then the
// coordinator's — under q, then under FPR for every accelerator with the
// default and the static schedule. A leg joins its targets against one
// source set, home sources and loans, so the coordinator counts what the
// single engine counts: candidates and results always, and under the
// static schedule, whose ladder no calibration history shapes, the per-LOD
// pair counts and the bound-decisive pairs too.
func sameCounts(t *testing.T, q core.QueryOptions, run func(core.QueryOptions) (want, got *core.Stats)) {
	t.Helper()
	want, got := run(q)
	if got.Candidates != want.Candidates || got.Results != want.Results {
		t.Errorf("%v: sharded candidates %d, results %d; single engine %d, %d", q.Paradigm, got.Candidates, got.Results, want.Candidates, want.Results)
	}
	for _, accel := range []core.Accel{core.BruteForce, core.AABB, core.Partition, core.GPU, core.PartitionGPU} {
		for _, sched := range []core.Sched{core.SchedMargin, core.SchedStatic} {
			fq := q
			fq.Paradigm, fq.Accel, fq.Sched = core.FPR, accel, sched
			want, got := run(fq)
			same := got.Candidates == want.Candidates && got.Results == want.Results
			if sched == core.SchedStatic {
				same = same && got.BoundsDecisive == want.BoundsDecisive &&
					slices.Equal(got.PairsEvaluated, want.PairsEvaluated) && slices.Equal(got.PairsPruned, want.PairsPruned)
			}
			if !same {
				t.Errorf("FPR %v %v: sharded counts differ from the single engine's:\n got candidates %d results %d evaluated %v pruned %v decisive %d\nwant candidates %d results %d evaluated %v pruned %v decisive %d",
					accel, sched, got.Candidates, got.Results, got.PairsEvaluated, got.PairsPruned, got.BoundsDecisive,
					want.Candidates, want.Results, want.PairsEvaluated, want.PairsPruned, want.BoundsDecisive)
			}
		}
	}
}

// counterSums extracts the additive counters checked by the Σ-invariant:
// every counter-table row but elapsed_ms (a maximum, which the coordinator
// overwrites with its own wall clock), the list lengths and the per-LOD
// totals.
func counterSums(s *core.Stats) map[string]int64 {
	m := map[string]int64{
		"uncertain":    int64(len(s.Uncertain)),
		"uncertainIDs": int64(len(s.UncertainIDs)),
		"degraded":     int64(len(s.Degraded)),
	}
	for _, c := range core.Counters {
		if c.Name != "elapsed_ms" {
			m[c.Name] = *c.Field(s)
		}
	}
	for _, v := range s.PairsEvaluated {
		m["pairsEvaluated"] += v
	}
	for _, v := range s.PairsPruned {
		m["pairsPruned"] += v
	}
	return m
}

// TestShardStatsInvariant asserts the exact-attribution contract of the
// tier: the coordinator's merged counters equal the sum of the per-shard
// Stats it reports in Stats.Shards.
func TestShardStatsInvariant(t *testing.T) {
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	c := startHTTPCluster(t, shard.Options{Shards: 4}, a, b).coord

	_, st, err := c.IntersectJoin(context.Background(), "nucleiA", "nucleiB", core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("Stats.Shards has %d entries, want 4", len(st.Shards))
	}
	sum := map[string]int64{}
	for _, ss := range st.Shards {
		if ss.Status != "ok" && ss.Status != "skipped" {
			t.Fatalf("shard %d status %q (%s)", ss.Shard, ss.Status, ss.Err)
		}
		if ss.Stats == nil {
			if ss.Status == "ok" {
				t.Fatalf("shard %d ok but has no stats", ss.Shard)
			}
			continue
		}
		for k, v := range counterSums(ss.Stats) {
			sum[k] += v
		}
	}
	total := counterSums(st)
	if !reflect.DeepEqual(sum, total) {
		t.Fatalf("Σ per-shard != coordinator totals:\n  Σ = %v\n  total = %v", sum, total)
	}
	if total["results"] == 0 {
		t.Fatal("join produced no results; fixture too sparse to prove anything")
	}
}

func TestUnknownDataset(t *testing.T) {
	c := startHTTPCluster(t, shard.Options{Shards: 2}).coord
	_, _, err := c.IntersectJoin(context.Background(), "nope", "nope", core.QueryOptions{})
	if !errors.Is(err, shard.ErrUnknownDataset) {
		t.Fatalf("err = %v, want ErrUnknownDataset", err)
	}
	_, _, err = c.RangeQuery(context.Background(), "nope", geom.Box3{}, core.QueryOptions{})
	if !errors.Is(err, shard.ErrUnknownDataset) {
		t.Fatalf("range err = %v, want ErrUnknownDataset", err)
	}
}

// TestPlacementCoversAllObjects checks every object is homed on exactly one
// shard and the shard health snapshot agrees with the placement.
func TestPlacementCoversAllObjects(t *testing.T) {
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, _ := buildPair(t, e)
	c := startHTTPCluster(t, shard.Options{Shards: 3}, a).coord

	total := 0
	for _, h := range c.Health() {
		if h.State != "closed" {
			t.Fatalf("fresh shard %d state %q", h.Shard, h.State)
		}
		total += h.Objects
	}
	if total != a.Len() {
		t.Fatalf("placement covers %d objects, dataset has %d", total, a.Len())
	}
	if c.Degraded() {
		t.Fatal("fresh coordinator reports degraded")
	}
}
