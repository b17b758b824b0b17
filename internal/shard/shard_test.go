package shard_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/ppvp"
	"repro/internal/shard"
)

func testEngineOptions() core.EngineOptions {
	return core.EngineOptions{CacheBytes: 64 << 20, Workers: 4, GPUWorkers: 2, GPUBatch: 512}
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

func testCoordinator(t *testing.T, opts shard.Options, datasets ...*core.Dataset) *shard.Coordinator {
	t.Helper()
	c := shard.NewInProcess(testEngineOptions(), opts)
	t.Cleanup(c.Close)
	for _, d := range datasets {
		if err := c.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// sameSlice compares result slices, treating nil and empty as equal (the
// coordinator concatenates into a nil slice when every shard is empty).
func sameSlice[T any](got, want []T) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

// TestShardedEquivalence proves the coordinator's scatter-gather returns
// byte-for-byte the single-engine answer for every query kind, including
// self-joins (whose cross-shard pairs exercise the loan path heavily).
func TestShardedEquivalence(t *testing.T) {
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	da, db := buildDisjointPair(t, e)
	c := testCoordinator(t, shard.Options{Shards: 4}, a, b, da, db)
	ctx := context.Background()
	q := core.QueryOptions{}

	t.Run("intersect", func(t *testing.T) {
		want, _, err := e.IntersectJoin(ctx, a, b, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlice(got, want) {
			t.Fatalf("sharded intersect differs:\n got %v\nwant %v", got, want)
		}
	})
	t.Run("intersect-self", func(t *testing.T) {
		want, _, err := e.IntersectJoin(ctx, a, a, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.IntersectJoin(ctx, "nucleiA", "nucleiA", q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlice(got, want) {
			t.Fatalf("sharded self-intersect differs:\n got %v\nwant %v", got, want)
		}
	})
	t.Run("within", func(t *testing.T) {
		want, _, err := e.WithinJoin(ctx, da, db, 8, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.WithinJoin(ctx, "disjA", "disjB", 8, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlice(got, want) {
			t.Fatalf("sharded within differs:\n got %v\nwant %v", got, want)
		}
	})
	t.Run("nn", func(t *testing.T) {
		want, _, err := e.NNJoin(ctx, da, db, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.KNNJoin(ctx, "disjA", "disjB", q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlice(got, want) {
			t.Fatalf("sharded nn differs:\n got %v\nwant %v", got, want)
		}
	})
	t.Run("knn", func(t *testing.T) {
		kq := q
		kq.K = 3
		want, _, err := e.KNNJoin(ctx, da, db, kq)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.KNNJoin(ctx, "disjA", "disjB", kq)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlice(got, want) {
			t.Fatalf("sharded knn differs:\n got %v\nwant %v", got, want)
		}
	})
	t.Run("knn-self", func(t *testing.T) {
		kq := q
		kq.K = 2
		want, _, err := e.KNNJoin(ctx, da, da, kq)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.KNNJoin(ctx, "disjA", "disjA", kq)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlice(got, want) {
			t.Fatalf("sharded self-knn differs:\n got %v\nwant %v", got, want)
		}
	})
	t.Run("range", func(t *testing.T) {
		bounds := a.Tree().Bounds()
		box := geom.Box3{Min: bounds.Min, Max: bounds.Min.Lerp(bounds.Max, 0.5)}
		want, _, err := e.RangeQuery(ctx, a, box, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.RangeQuery(ctx, "nucleiA", box, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlice(got, want) {
			t.Fatalf("sharded range differs:\n got %v\nwant %v", got, want)
		}
	})
	t.Run("contains", func(t *testing.T) {
		p := a.Tileset.Object(0).MBB().Center()
		want, _, err := e.ContainingObjects(ctx, a, p, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.ContainingObjects(ctx, "nucleiA", p, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlice(got, want) {
			t.Fatalf("sharded contains differs:\n got %v\nwant %v", got, want)
		}
	})
}

// counterSums extracts the additive counters checked by the Σ-invariant.
func counterSums(s *core.Stats) map[string]int64 {
	m := map[string]int64{
		"candidates":      s.Candidates,
		"results":         s.Results,
		"decodes":         s.Decodes,
		"cacheHits":       s.CacheHits,
		"warmStarts":      s.WarmStarts,
		"roundsApplied":   s.RoundsApplied,
		"roundsSkipped":   s.RoundsSkipped,
		"quarantineSkips": s.QuarantineSkips,
		"decodeRetries":   s.DecodeRetries,
		"decodeFailures":  s.DecodeFailures,
		"uncertain":       int64(len(s.Uncertain)),
		"uncertainIDs":    int64(len(s.UncertainIDs)),
		"degraded":        int64(len(s.Degraded)),
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
	c := testCoordinator(t, shard.Options{Shards: 4}, a, b)

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
	c := testCoordinator(t, shard.Options{Shards: 2})
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
	c := testCoordinator(t, shard.Options{Shards: 3}, a)

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
