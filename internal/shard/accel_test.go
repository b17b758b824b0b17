package shard_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// TestShardedWarmEquivalence extends the accelerator-memo contract to the
// sharded path: shard engines whose cached meshes carry accelerators left by
// earlier legs — under every accelerator in turn — keep returning the fresh
// single-engine answer, self-joins (loan-heavy) included, and the legs'
// memo counters reach the coordinator's merged stats.
func TestShardedWarmEquivalence(t *testing.T) {
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	da, db := buildDisjointPair(t, e)
	c := startHTTPCluster(t, shard.Options{Shards: 3}, a, b, da, db).coord
	ctx := context.Background()

	for _, accel := range []core.Accel{core.AABB, core.Partition, core.GPU, core.PartitionGPU, core.BruteForce} {
		q := core.QueryOptions{Accel: accel}
		name := accel.String()

		e.Cache().Clear() // the reference builds everything afresh
		wantInt, _, err := e.IntersectJoin(ctx, a, a, q)
		if err != nil {
			t.Fatal(err)
		}
		wantWithin, _, err := e.WithinJoin(ctx, da, db, 8, q)
		if err != nil {
			t.Fatal(err)
		}
		wantNN, _, err := e.NNJoin(ctx, da, db, q)
		if err != nil {
			t.Fatal(err)
		}

		var builds, reuses [2]int64
		for pass := 0; pass < 2; pass++ {
			gotInt, st1, err := c.IntersectJoin(ctx, "nucleiA", "nucleiA", q)
			if err != nil {
				t.Fatal(err)
			}
			gotWithin, st2, err := c.WithinJoin(ctx, "disjA", "disjB", 8, q)
			if err != nil {
				t.Fatal(err)
			}
			gotNN, st3, err := c.KNNJoin(ctx, "disjA", "disjB", q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSlice(gotInt, wantInt) || !sameSlice(gotWithin, wantWithin) || !sameSlice(gotNN, wantNN) {
				t.Errorf("%s pass %d: sharded answers differ from the fresh single engine", name, pass)
			}
			for _, st := range []*core.Stats{st1, st2, st3} {
				builds[pass] += st.AccelBuilds
				reuses[pass] += st.AccelReuses
			}
		}
		if accel == core.AABB {
			// First accelerator through: pass 0 built trees on the shards'
			// objects, home and loaned, pass 1 found every one of them —
			// loans are cached under their blob like home objects.
			if builds[0] == 0 || reuses[1] == 0 || builds[1] != 0 {
				t.Errorf("%s: builds %v reuses %v: warm shard legs did not reuse the memos", name, builds, reuses)
			}
		}
	}
}
