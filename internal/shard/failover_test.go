package shard_test

// Replica failover: with Replicas > 1 a dead shard must not cost any
// certainty — the group fails over to the next
// replica, whose answer is byte-identical. Only when every replica of a
// group is dead does the PR-6 degradation contract apply, and the active
// prober must rejoin a healed shard without query traffic.

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/shard"
)

// TestReplicaFailoverExact kills one physical shard of a replicated tier
// and asserts the answer stays byte-equal to the clean run with zero
// uncertainty: the dead shard's home group is served by its replica.
func TestReplicaFailoverExact(t *testing.T) {
	leakcheck.Check(t)
	defer faultinject.Reset()
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	const shards = 4
	ctx := context.Background()

	clean, _, err := e.IntersectJoin(ctx, a, b, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	c := startHTTPCluster(t, shard.Options{
		Shards:       shards,
		Replicas:     2,
		Retries:      1,
		RetryBackoff: time.Millisecond,
	}, a, b).coord
	faultinject.Arm(killPoint(1), faultinject.Fault{Err: faultinject.ErrInjected})

	// Even FailFast succeeds: failover is not degradation.
	got, st, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{})
	if err != nil {
		t.Fatalf("query with one dead replica failed: %v", err)
	}
	if !sameSlice(got, clean) {
		t.Fatalf("failed-over answer differs from clean:\n got %v\nwant %v", got, clean)
	}
	if len(st.Uncertain) != 0 || len(st.UncertainIDs) != 0 || len(st.Degraded) != 0 {
		t.Fatalf("failover surfaced uncertainty: %+v", st)
	}
	home := homeShards(a, shards)
	group1HasObjects := false
	for _, g := range home {
		if g == 1 {
			group1HasObjects = true
			break
		}
	}
	for _, ss := range st.Shards {
		switch {
		case ss.Shard == 1 && ss.Status == "ok":
			if ss.Replica != 1 {
				t.Fatalf("group 1 served by replica %d, want 1 (failover)", ss.Replica)
			}
		case ss.Status == "ok" && ss.Replica != 0:
			t.Fatalf("group %d served by replica %d with a live primary", ss.Shard, ss.Replica)
		case ss.Status != "ok" && ss.Status != "skipped":
			t.Fatalf("group %d status %q (%s)", ss.Shard, ss.Status, ss.Err)
		}
	}
	if m := c.Metrics(); group1HasObjects && (m.Failovers < 1 || m.FailoverWins < 1) {
		t.Fatalf("failover counters not advanced: %+v", m)
	}
}

// TestBothReplicasDeadDegrades severs both links to the workers holding one
// home group at the transport's fault points and asserts exactly the
// single-copy degradation contract: the group's home objects go uncertain,
// every other group — including one whose primary died but whose replica
// survives — stays exact.
func TestBothReplicasDeadDegrades(t *testing.T) {
	defer faultinject.Reset()
	checkBothReplicasDead(t, func(_ *httpCluster, s int) {
		faultinject.Arm(killPoint(s), faultinject.Fault{Err: faultinject.ErrInjected})
	})
}

// TestHTTPBothReplicasDeadDegrades is TestBothReplicasDeadDegrades with the
// two workers shut down instead: their connections are refused outright,
// and the same contract holds.
func TestHTTPBothReplicasDeadDegrades(t *testing.T) {
	checkBothReplicasDead(t, (*httpCluster).kill)
}

// checkBothReplicasDead makes workers 1 and 2 of a 4-worker, Replicas 2
// cluster unreachable with kill and checks the degraded answer.
func checkBothReplicasDead(t *testing.T, kill func(cl *httpCluster, s int)) {
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

	cl := startHTTPCluster(t, shard.Options{
		Shards:       shards,
		Replicas:     2,
		Retries:      -1,
		RetryBackoff: time.Millisecond,
	}, a, b)
	c := cl.coord
	// Group 1 lives on workers 1 and 2: killing both makes it unreachable.
	// Group 2 (primary worker 2) must fail over to worker 3 and stay exact;
	// group 0 (workers 0, 1) is served by its primary.
	kill(cl, 1)
	kill(cl, 2)

	// FailFast: an unreachable group aborts the query.
	if _, _, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{}); err == nil {
		t.Fatal("FailFast query with an unreachable group did not fail")
	}

	got, st, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{OnError: core.Degrade})
	if err != nil {
		t.Fatalf("degraded query failed outright: %v", err)
	}
	var want []core.Pair
	for _, p := range clean {
		if home[p.Target] != 1 {
			want = append(want, p)
		}
	}
	if !sameSlice(got, want) {
		t.Fatalf("certain pairs:\n got %v\nwant %v", got, want)
	}
	for id, g := range home {
		if g == 1 && !slices.Contains(st.UncertainIDs, id) {
			t.Fatalf("unreachable group's object %d missing from UncertainIDs %v", id, st.UncertainIDs)
		}
		if g != 1 && slices.Contains(st.UncertainIDs, id) {
			t.Fatalf("object %d of live group %d reported uncertain", id, g)
		}
	}
	if len(st.Degraded) != 1 {
		t.Fatalf("Degraded has %d entries, want 1 (the unreachable group): %v", len(st.Degraded), st.Degraded)
	}
	for _, ss := range st.Shards {
		switch ss.Shard {
		case 1:
			if ss.Status != "error" {
				t.Fatalf("unreachable group 1 status %q", ss.Status)
			}
		case 2:
			if ss.Status == "ok" && ss.Replica != 1 {
				t.Fatalf("group 2 served by replica %d, want failover to shard 3", ss.Replica)
			}
		}
	}

	// Σ-per-shard invariant holds for the replicated degraded query too.
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
}

// TestReplicatedPlacementCoverage checks Health() accounts every home
// object once per replica.
func TestReplicatedPlacementCoverage(t *testing.T) {
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, _ := buildPair(t, e)
	c := startHTTPCluster(t, shard.Options{Shards: 3, Replicas: 2}, a).coord

	total := 0
	for _, h := range c.Health() {
		total += h.Objects
	}
	if total != 2*a.Len() {
		t.Fatalf("replicated placement covers %d object copies, want %d", total, 2*a.Len())
	}
	if got := c.Replicas(); got != 2 {
		t.Fatalf("Replicas() = %d, want 2", got)
	}
}

// TestProberRejoinsShard trips a shard's breaker, heals the fault, and
// asserts the background prober closes the breaker again without any query
// being issued — then the first real query uses the primary again.
func TestProberRejoinsShard(t *testing.T) {
	leakcheck.Check(t)
	defer faultinject.Reset()
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	ctx := context.Background()
	const cooldown = 30 * time.Millisecond

	c := startHTTPCluster(t, shard.Options{
		Shards:           4,
		Replicas:         2,
		Retries:          -1,
		BreakerThreshold: 1,
		BreakerCooldown:  cooldown,
	}, a, b).coord
	c.StartProber(10 * time.Millisecond)

	clean, _, err := e.IntersectJoin(ctx, a, b, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Kill shard 1, trip its breaker with one query (answers stay exact via
	// the replica).
	faultinject.Arm(killPoint(1), faultinject.Fault{Err: faultinject.ErrInjected})
	got, _, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSlice(got, clean) {
		t.Fatalf("failed-over answer differs from clean:\n got %v\nwant %v", got, clean)
	}
	if !c.Degraded() {
		t.Fatal("breaker not tracking the dead shard")
	}

	// While the fault stays armed the prober's probes must fail, not close
	// the breaker.
	deadline := time.Now().Add(time.Second)
	for c.Metrics().ProbeFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("prober issued no failing probes: %+v", c.Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !c.Degraded() {
		t.Fatal("breaker closed while the shard was still dead")
	}

	// Heal the shard. The prober must rejoin it — no queries issued here.
	faultinject.Reset()
	queriesBefore := c.Metrics().Queries
	deadline = time.Now().Add(2 * time.Second)
	for c.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("prober did not rejoin the healed shard: %+v", c.Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}
	m := c.Metrics()
	if m.Queries != queriesBefore {
		t.Fatalf("rejoin consumed query traffic: %d queries ran", m.Queries-queriesBefore)
	}
	if m.Probes < 1 || m.ProbeRecoveries < 1 {
		t.Fatalf("prober counters not advanced: %+v", m)
	}

	// The rejoined primary serves its group again.
	_, st, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range st.Shards {
		if ss.Status == "ok" && ss.Replica != 0 {
			t.Fatalf("group %d still served by replica %d after rejoin", ss.Shard, ss.Replica)
		}
	}

	// Stopping twice is safe; Close stops it again harmlessly.
	c.StopProber()
	c.StopProber()
}
