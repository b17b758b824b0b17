package shard_test

// Multi-shard chaos: worker links are severed at the transport's fault
// points and the coordinator must keep answering — certain results shrink by
// exactly the dead shards' home objects, which reappear in UncertainIDs.
// Transient faults must be absorbed by the retry loop without surfacing
// any uncertainty at all.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/leakcheck"
	"repro/internal/shard"
)

// homeShards maps every object ID of d to its home shard under n shards
// (the coordinator's placement rule: cuboid mod n).
func homeShards(d *core.Dataset, n int) map[int64]int {
	out := make(map[int64]int, d.Len())
	for _, o := range d.Tileset.Objects {
		if o != nil {
			out[o.ID] = o.Cuboid % n
		}
	}
	return out
}

// killPoint returns the faultinject point that severs one shard's link.
func killPoint(s int) string {
	return fmt.Sprintf("%s.%d", faultinject.PointShardNetSend, s)
}

// TestDeadShardsDegrade kills K of N shards at the transport and asserts
// the degraded-answer contract for K = 1 and K = 2.
func TestDeadShardsDegrade(t *testing.T) {
	leakcheck.Check(t)
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	const shards = 4
	home := homeShards(a, shards)
	ctx := context.Background()

	clean, _, err := e.IntersectJoin(ctx, a, b, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, dead := range [][]int{{1}, {1, 3}} {
		t.Run(fmt.Sprintf("kill=%v", dead), func(t *testing.T) {
			defer faultinject.Reset()
			c := startHTTPCluster(t, shard.Options{
				Shards:       shards,
				Retries:      1,
				RetryBackoff: time.Millisecond,
			}, a, b).coord
			isDead := func(s int) bool { return slices.Contains(dead, s) }
			for _, s := range dead {
				faultinject.Arm(killPoint(s), faultinject.Fault{Err: faultinject.ErrInjected})
			}

			// FailFast: a dead shard aborts the query.
			if _, _, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{}); err == nil {
				t.Fatal("FailFast query with a dead shard did not fail")
			}

			// Degrade: certain answer minus the dead shards' home targets.
			got, st, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{OnError: core.Degrade})
			if err != nil {
				t.Fatalf("degraded query failed outright: %v", err)
			}
			var want []core.Pair
			var wantUncertain []int64
			for _, p := range clean {
				if !isDead(home[p.Target]) {
					want = append(want, p)
				}
			}
			for id, s := range home {
				if isDead(s) {
					wantUncertain = append(wantUncertain, id)
				}
			}
			if !sameSlice(got, want) {
				t.Fatalf("certain pairs:\n got %v\nwant %v", got, want)
			}
			// Every dead-shard home object must be flagged uncertain.
			for _, id := range wantUncertain {
				if !slices.Contains(st.UncertainIDs, id) {
					t.Fatalf("dead-shard object %d missing from UncertainIDs %v", id, st.UncertainIDs)
				}
			}
			if len(st.Degraded) != len(dead) {
				t.Fatalf("Degraded has %d entries, want %d (one per dead shard): %v", len(st.Degraded), len(dead), st.Degraded)
			}
			for _, ss := range st.Shards {
				if isDead(ss.Shard) {
					if ss.Status != "error" {
						t.Fatalf("dead shard %d status %q", ss.Shard, ss.Status)
					}
					if ss.Attempts != 2 { // 1 primary + 1 retry
						t.Fatalf("dead shard %d made %d attempts, want 2", ss.Shard, ss.Attempts)
					}
				} else if ss.Status != "ok" && ss.Status != "skipped" {
					t.Fatalf("live shard %d status %q (%s)", ss.Shard, ss.Status, ss.Err)
				}
			}

			// The Σ-per-shard invariant must hold for the degraded query too,
			// uncertainty lists included.
			sum := map[string]int64{}
			for _, ss := range st.Shards {
				if ss.Stats != nil {
					for k, v := range counterSums(ss.Stats) {
						sum[k] += v
					}
				}
			}
			for k, v := range counterSums(st) {
				if sum[k] != v {
					t.Fatalf("Σ per-shard %s = %d, coordinator total %d", k, sum[k], v)
				}
			}
		})
	}
}

// TestRoutedIDQueriesDegradeExactly kills one of two shards and checks that
// point and range queries lose exactly what the coordinator's R-tree routed
// to it: a point whose candidates all live on the live shard answers under
// FailFast with no degradation, and a box meeting both groups degrades with
// UncertainIDs equal to the dead group's candidates — not its home objects.
func TestRoutedIDQueriesDegradeExactly(t *testing.T) {
	leakcheck.Check(t)
	defer faultinject.Reset()
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, _ := buildPair(t, e)
	const shards, dead = 2, 1
	home := homeShards(a, shards)
	ctx := context.Background()
	candidates := func(box geom.Box3) (live, lost []int64) {
		a.Tree().SearchIntersect(box, func(ent rtree.Entry) bool {
			if home[ent.ID] == dead {
				lost = append(lost, ent.ID)
			} else {
				live = append(live, ent.ID)
			}
			return true
		})
		slices.Sort(lost)
		return live, lost
	}

	// A point inside a live-group object whose MBB meets no dead-group MBB.
	var p geom.Vec3
	found := false
	for _, o := range a.Tileset.Objects {
		if home[o.ID] == dead {
			continue
		}
		if _, lost := candidates(geom.BoxOf(o.MBB().Center())); len(lost) == 0 {
			p, found = o.MBB().Center(), true
			break
		}
	}
	// A box spanning two object centres that meets both groups, but only
	// some of the dead group's objects.
	var box geom.Box3
	var deadCands []int64
	deadHome := 0
	for _, s := range home {
		if s == dead {
			deadHome++
		}
	}
search:
	for _, o := range a.Tileset.Objects {
		for _, o2 := range a.Tileset.Objects {
			b := geom.BoxOf(o.MBB().Center()).ExtendPoint(o2.MBB().Center())
			if live, lost := candidates(b); len(live) > 0 && len(lost) > 0 && len(lost) < deadHome {
				box, deadCands = b, lost
				break search
			}
		}
	}
	if !found || deadCands == nil {
		t.Fatalf("fixture has no live-only point (%v) or two-group box (%v)", found, deadCands)
	}
	wantPoint, _, err := e.ContainingObjects(ctx, a, p, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantBox, _, err := e.RangeQuery(ctx, a, box, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	c := startHTTPCluster(t, shard.Options{Shards: shards, Replicas: 1, Retries: -1}, a).coord
	faultinject.Arm(killPoint(dead), faultinject.Fault{Err: faultinject.ErrInjected})

	got, st, err := c.ContainingObjects(ctx, "nucleiA", p, core.QueryOptions{})
	if err != nil {
		t.Fatalf("FailFast point routed only to the live shard failed: %v", err)
	}
	if !sameSlice(got, wantPoint) || len(st.Degraded) != 0 || len(st.UncertainIDs) != 0 {
		t.Fatalf("point: got %v (degraded %v, uncertain %v), want %v clean", got, st.Degraded, st.UncertainIDs, wantPoint)
	}
	if st.Shards[dead].Status != "skipped" {
		t.Fatalf("dead shard status %q for a point it owns no candidate of, want skipped", st.Shards[dead].Status)
	}

	if _, _, err := c.RangeQuery(ctx, "nucleiA", box, core.QueryOptions{}); !errors.Is(err, shard.ErrShardFailed) {
		t.Fatalf("FailFast box meeting the dead group: err %v, want ErrShardFailed", err)
	}
	got, st, err = c.RangeQuery(ctx, "nucleiA", box, core.QueryOptions{OnError: core.Degrade})
	if err != nil {
		t.Fatal(err)
	}
	var wantCertain []int64
	for _, id := range wantBox {
		if home[id] != dead {
			wantCertain = append(wantCertain, id)
		}
	}
	if !sameSlice(got, wantCertain) {
		t.Fatalf("degraded box: got %v, want %v", got, wantCertain)
	}
	if !slices.Equal(st.UncertainIDs, deadCands) {
		t.Fatalf("UncertainIDs %v, want the dead group's candidates %v", st.UncertainIDs, deadCands)
	}
	if len(st.Degraded) != 1 {
		t.Fatalf("Degraded %v, want one entry for the dead shard", st.Degraded)
	}
}

// TestRetryRecoversTransientFault proves a transient transport failure is
// retried to success without surfacing any uncertainty.
func TestRetryRecoversTransientFault(t *testing.T) {
	leakcheck.Check(t)
	defer faultinject.Reset()
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	ctx := context.Background()
	clean, _, err := e.IntersectJoin(ctx, a, b, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	c := startHTTPCluster(t, shard.Options{
		Shards:       4,
		Retries:      3,
		RetryBackoff: time.Millisecond,
	}, a, b).coord
	// Two one-shot failures: whichever shards draw them recover on retry.
	faultinject.Arm(faultinject.PointShardNetSend, faultinject.Fault{Err: faultinject.ErrInjected, Times: 2})

	got, st, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{OnError: core.Degrade})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSlice(got, clean) {
		t.Fatalf("recovered query differs from clean:\n got %v\nwant %v", got, clean)
	}
	if len(st.Uncertain) != 0 || len(st.UncertainIDs) != 0 || len(st.Degraded) != 0 {
		t.Fatalf("transient fault surfaced as degradation: %+v", st)
	}
	if m := c.Metrics(); m.Retries < 1 {
		t.Fatalf("metrics show no retries: %+v", m)
	}
	for _, ss := range st.Shards {
		if ss.Status != "ok" && ss.Status != "skipped" {
			t.Fatalf("shard %d status %q after recovery", ss.Shard, ss.Status)
		}
	}
	// The shards recovered, so none should be tracked by the breaker.
	if c.Degraded() {
		t.Fatal("breaker tracks a shard after successful recovery")
	}
}

// TestHedgedRequestBeatsStraggler arms a one-shot sleep so one shard's
// primary attempt stalls; the hedge must win and the query must not block
// on the straggler.
func TestHedgedRequestBeatsStraggler(t *testing.T) {
	leakcheck.Check(t)
	defer faultinject.Reset()
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	ctx := context.Background()
	clean, _, err := e.IntersectJoin(ctx, a, b, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	c := startHTTPCluster(t, shard.Options{
		Shards:     4,
		HedgeAfter: 10 * time.Millisecond,
	}, a, b).coord
	faultinject.Arm(faultinject.PointShardNetSend, faultinject.Fault{Delay: 300 * time.Millisecond, Times: 1})

	start := time.Now()
	got, st, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSlice(got, clean) {
		t.Fatalf("hedged query differs from clean:\n got %v\nwant %v", got, clean)
	}
	if m := c.Metrics(); m.Hedges < 1 {
		t.Fatalf("no hedge launched: %+v (elapsed %v)", m, time.Since(start))
	}
	hedged := false
	for _, ss := range st.Shards {
		hedged = hedged || ss.Hedged
	}
	if !hedged {
		t.Fatalf("no shard reports a hedged attempt: %+v", st.Shards)
	}
}

// TestBreakerOpensAndRecovers drives the per-shard breaker through its
// full lifecycle: trip on a dead shard, reject while open (no transport
// attempts), and close again via a half-open probe once the shard heals.
func TestBreakerOpensAndRecovers(t *testing.T) {
	leakcheck.Check(t)
	defer faultinject.Reset()
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	ctx := context.Background()
	const cooldown = 50 * time.Millisecond

	c := startHTTPCluster(t, shard.Options{
		Shards:           4,
		Retries:          -1, // no retries: each query is one attempt per shard
		BreakerThreshold: 1,
		BreakerCooldown:  cooldown,
	}, a, b).coord
	dq := core.QueryOptions{OnError: core.Degrade}

	// Trip: shard 0 dead, first degraded query records the failure.
	faultinject.Arm(killPoint(0), faultinject.Fault{Err: faultinject.ErrInjected})
	if _, st, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", dq); err != nil {
		t.Fatal(err)
	} else if st.Shards[0].Status != "error" {
		t.Fatalf("shard 0 status %q, want error", st.Shards[0].Status)
	}
	if !c.Degraded() {
		t.Fatal("breaker not tracking the dead shard")
	}

	// Open: the next query must not even attempt shard 0.
	calls := c.Metrics().ShardCalls
	_, st, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", dq)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards[0].Status != "open" {
		t.Fatalf("shard 0 status %q, want open", st.Shards[0].Status)
	}
	if st.Shards[0].Attempts != 0 {
		t.Fatalf("open shard was attempted %d times", st.Shards[0].Attempts)
	}
	if m := c.Metrics(); m.OpenSkips < 1 || m.ShardCalls-calls >= 4 {
		t.Fatalf("open shard consumed transport calls: %+v (delta %d)", m, m.ShardCalls-calls)
	}
	// Its home objects are still accounted as uncertain.
	if len(st.UncertainIDs) == 0 {
		t.Fatal("open shard produced no uncertainty accounting")
	}

	// Heal: disarm, wait out the cooldown, probe succeeds, breaker closes.
	faultinject.Reset()
	time.Sleep(cooldown + 10*time.Millisecond)
	clean, _, err := e.IntersectJoin(ctx, a, b, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, st2, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", dq)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Shards[0].Status != "ok" {
		t.Fatalf("healed shard 0 status %q (%s)", st2.Shards[0].Status, st2.Shards[0].Err)
	}
	if !sameSlice(got, clean) {
		t.Fatalf("healed query differs from clean:\n got %v\nwant %v", got, clean)
	}
	if c.Degraded() {
		t.Fatal("breaker still tracking shard 0 after successful probe")
	}
}

// TestRecvCorruptionIsTransportError flips bytes of a worker response on
// the wire: the CRC integrity header catches it, the attempt is a transport
// error like any transient fault, and the retry recovers the exact answer —
// a corrupted response is never silently accepted, nor degraded into
// uncertainty under Degrade.
func TestRecvCorruptionIsTransportError(t *testing.T) {
	checkRecvCorruption(t, core.QueryOptions{OnError: core.Degrade})
}

// TestHTTPRecvCorruptionIsTransportError is TestRecvCorruptionIsTransportError
// for a FailFast query: the retried corruption must not fail it.
func TestHTTPRecvCorruptionIsTransportError(t *testing.T) {
	checkRecvCorruption(t, core.QueryOptions{})
}

// checkRecvCorruption corrupts one worker response and checks that query q
// still returns the clean answer, exactly, after a retry.
func checkRecvCorruption(t *testing.T, q core.QueryOptions) {
	leakcheck.Check(t)
	defer faultinject.Reset()
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	ctx := context.Background()
	clean, _, err := e.IntersectJoin(ctx, a, b, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	c := startHTTPCluster(t, shard.Options{
		Shards:       2,
		Retries:      1,
		RetryBackoff: time.Millisecond,
	}, a, b).coord
	// One corrupted response; the retry reads a clean one.
	faultinject.Arm(faultinject.PointShardNetRecv, faultinject.Fault{Corrupt: true, Times: 1})

	got, st, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", q)
	if err != nil {
		t.Fatalf("query with one corrupted response failed: %v", err)
	}
	if !sameSlice(got, clean) {
		t.Fatalf("post-corruption query differs from clean:\n got %v\nwant %v", got, clean)
	}
	if len(st.UncertainIDs) != 0 || len(st.Degraded) != 0 {
		t.Fatalf("corruption degraded the query despite retry: %v %v", st.UncertainIDs, st.Degraded)
	}
	if m := c.Metrics(); m.Retries < 1 {
		t.Fatalf("corrupted response did not trigger a retry: %+v", m)
	}
}

// TestAllShardsDead asserts a query with every shard dead fails even under
// Degrade — with no survivor there is no sound certain answer.
func TestAllShardsDead(t *testing.T) {
	leakcheck.Check(t)
	defer faultinject.Reset()
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)

	c := startHTTPCluster(t, shard.Options{Shards: 2, Retries: -1}, a, b).coord
	faultinject.Arm(faultinject.PointShardNetSend, faultinject.Fault{Err: faultinject.ErrInjected})

	_, _, err := c.IntersectJoin(context.Background(), "nucleiA", "nucleiB", core.QueryOptions{OnError: core.Degrade})
	if err == nil {
		t.Fatal("query with all shards dead succeeded")
	}
}
