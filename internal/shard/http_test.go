package shard_test

// Multi-process serving tests: real HTTP workers on loopback behind the
// HTTPTransport, driven through the same coordinator API as the in-process
// tier. The contract is identical — byte-equal answers, failover without
// uncertainty, single-copy degradation only when every replica of a group
// is dead — plus the process-level concerns the in-process tier cannot
// exercise: connection failures, CRC integrity over the wire, request-ID
// propagation, graceful drain, and prober-driven rejoin of a restarted
// worker.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/server"
	"repro/internal/shard"
)

func quietServerConfig() server.Config {
	return server.Config{
		Logger: log.New(io.Discard, "", 0),
		Slog:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// httpCluster is a test fleet: n shard workers served over loopback HTTP
// plus a coordinator reaching them through the HTTP transport. Workers can
// be killed (hard connection close, like a crashed process) and restarted
// on the same port with their state intact — modeling a worker that
// restores its datasets before listening again.
type httpCluster struct {
	t     *testing.T
	nodes []*shard.Node
	addrs []string // listen addresses, stable across restarts
	srvs  []*http.Server
	taps  []*loanTap
	tr    *shard.HTTPTransport
	coord *shard.Coordinator
}

// loanTap reads the query requests crossing one worker's listener, like the
// benchmark's wireCounter wraps its handler, and counts the loan refs and
// the loan blobs (by object ID) they carry.
type loanTap struct {
	mu      sync.Mutex
	refs    int
	shipped map[int64]int
}

func (tp *loanTap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/query" {
			body, err := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req struct {
				Loans []struct {
					ID   int64  `json:"id"`
					Blob []byte `json:"blob"`
				} `json:"loans"`
			}
			if err == nil && json.Unmarshal(body, &req) == nil {
				tp.mu.Lock()
				for _, l := range req.Loans {
					tp.refs++
					if len(l.Blob) > 0 {
						tp.shipped[l.ID]++
					}
				}
				tp.mu.Unlock()
			}
		}
		h.ServeHTTP(rw, r)
	})
}

// take returns the refs and blobs counted since the last take.
func (tp *loanTap) take() (refs int, shipped map[int64]int) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	refs, shipped = tp.refs, tp.shipped
	tp.refs, tp.shipped = 0, make(map[int64]int)
	return refs, shipped
}

// startHTTPCluster builds the fleet, installs the datasets through the
// transport's dataset endpoint, and registers teardown. Call
// leakcheck.Check before this: cleanups run LIFO, so the leak diff then
// runs after every engine and listener is closed.
func startHTTPCluster(t *testing.T, opts shard.Options, datasets ...*core.Dataset) *httpCluster {
	t.Helper()
	opts.Shards = max(opts.Shards, 1)
	cl := &httpCluster{
		t:     t,
		nodes: make([]*shard.Node, opts.Shards),
		addrs: make([]string, opts.Shards),
		srvs:  make([]*http.Server, opts.Shards),
		taps:  make([]*loanTap, opts.Shards),
	}
	urls := make([]string, opts.Shards)
	for i := range cl.nodes {
		cl.nodes[i] = shard.NewNode(i, testEngineOptions())
		cl.taps[i] = &loanTap{shipped: make(map[int64]int)}
	}
	t.Cleanup(func() {
		for _, n := range cl.nodes {
			n.Close()
		}
	})
	for i := range cl.nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cl.addrs[i] = ln.Addr().String()
		urls[i] = "http://" + cl.addrs[i]
		cl.serveOn(i, ln)
	}
	t.Cleanup(func() {
		for _, srv := range cl.srvs {
			srv.Close()
		}
	})
	cl.tr = shard.NewHTTPTransport(urls)
	t.Cleanup(cl.tr.Close)
	cl.coord = shard.NewWithTransport(cl.tr, opts)
	t.Cleanup(cl.coord.Close)
	for _, d := range datasets {
		if err := cl.coord.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

func (cl *httpCluster) serveOn(i int, ln net.Listener) {
	w := server.NewWorker(cl.nodes[i], quietServerConfig())
	srv := &http.Server{Handler: cl.taps[i].wrap(w.Handler()), ErrorLog: log.New(io.Discard, "", 0)}
	cl.srvs[i] = srv
	go func() { _ = srv.Serve(ln) }()
}

// kill hard-closes worker i's listener and connections, as a crashed
// process would.
func (cl *httpCluster) kill(i int) { cl.srvs[i].Close() }

// restart brings worker i back on its original port, reusing the node (a
// restarted worker restores its datasets before serving).
func (cl *httpCluster) restart(i int) {
	cl.t.Helper()
	var ln net.Listener
	var err error
	deadline := time.Now().Add(2 * time.Second)
	for {
		ln, err = net.Listen("tcp", cl.addrs[i])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			cl.t.Fatalf("restarting worker %d on %s: %v", i, cl.addrs[i], err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cl.serveOn(i, ln)
}

// TestShardedEquivalenceHTTP proves the multi-process tier returns
// byte-for-byte the single-engine answer for every query kind, including
// self-joins, with replicated placement on — queries, loans, and answers
// all crossing real HTTP connections.
func TestShardedEquivalenceHTTP(t *testing.T) {
	leakcheck.Check(t)
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	da, db := buildDisjointPair(t, e)
	cl := startHTTPCluster(t, shard.Options{Shards: 4, Replicas: 2}, a, b, da, db)
	c := cl.coord
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
			t.Fatalf("HTTP intersect differs:\n got %v\nwant %v", got, want)
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
			t.Fatalf("HTTP self-intersect differs:\n got %v\nwant %v", got, want)
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
			t.Fatalf("HTTP within differs:\n got %v\nwant %v", got, want)
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
			t.Fatalf("HTTP nn differs:\n got %v\nwant %v", got, want)
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
			t.Fatalf("HTTP knn differs:\n got %v\nwant %v", got, want)
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
			t.Fatalf("HTTP self-knn differs:\n got %v\nwant %v", got, want)
		}
	})
	t.Run("range", func(t *testing.T) {
		bounds := a.Tree().Bounds()
		rbox := bounds
		rbox.Max = bounds.Min.Lerp(bounds.Max, 0.5)
		want, _, err := e.RangeQuery(ctx, a, rbox, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.RangeQuery(ctx, "nucleiA", rbox, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlice(got, want) {
			t.Fatalf("HTTP range differs:\n got %v\nwant %v", got, want)
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
			t.Fatalf("HTTP contains differs:\n got %v\nwant %v", got, want)
		}
	})
}

// TestHTTPChaosCampaign walks the whole robustness ladder over real HTTP
// workers with a seeded coordinator: transient network faults are retried,
// a straggling link is hedged past, a killed worker is failed over with
// zero uncertainty, its open breaker short-circuits the next query, and a
// restarted worker rejoins through the prober without query traffic.
func TestHTTPChaosCampaign(t *testing.T) {
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

	cl := startHTTPCluster(t, shard.Options{
		Shards:           4,
		Replicas:         2,
		Retries:          2,
		RetryBackoff:     time.Millisecond,
		HedgeAfter:       10 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  50 * time.Millisecond,
		Seed:             20260808, // the campaign seed: jitter is reproducible
	}, a, b)
	c := cl.coord
	c.StartProber(10 * time.Millisecond)

	mustExact := func(rung string) *core.Stats {
		t.Helper()
		got, st, err := c.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{})
		if err != nil {
			t.Fatalf("%s: query failed: %v", rung, err)
		}
		if !sameSlice(got, clean) {
			t.Fatalf("%s: answer differs from clean:\n got %v\nwant %v", rung, got, clean)
		}
		if len(st.Uncertain) != 0 || len(st.UncertainIDs) != 0 || len(st.Degraded) != 0 {
			t.Fatalf("%s: uncertainty surfaced: %+v", rung, st)
		}
		return st
	}

	// Rung 0: clean baseline over HTTP.
	mustExact("baseline")

	// Rung 1: transient network faults on the send path are retried away.
	before := c.Metrics()
	faultinject.Arm(faultinject.PointShardNetSend, faultinject.Fault{Err: faultinject.ErrInjected, Times: 2})
	mustExact("retry")
	if m := c.Metrics(); m.Retries <= before.Retries {
		t.Fatalf("retry rung earned no retries: %+v", m)
	}
	faultinject.Reset()

	// Rung 2: a straggling link is hedged past. The delay burns only the
	// first firing, so the hedge attempt goes through clean and wins.
	before = c.Metrics()
	faultinject.Arm("shard.net.send.2", faultinject.Fault{Delay: 300 * time.Millisecond, Times: 1})
	mustExact("hedge")
	if m := c.Metrics(); m.Hedges <= before.Hedges {
		t.Fatalf("hedge rung launched no hedges: %+v", m)
	}
	faultinject.Reset()

	// Rung 3: kill worker 1. Its home group fails over to the replica on
	// worker 2 — byte-equal, zero uncertainty, even though the connection
	// is refused outright.
	before = c.Metrics()
	cl.kill(1)
	st := mustExact("failover")
	for _, ss := range st.Shards {
		if ss.Shard == 1 && ss.Status == "ok" && ss.Replica != 1 {
			t.Fatalf("failover rung: group 1 served by replica %d, want 1", ss.Replica)
		}
	}
	if m := c.Metrics(); m.Failovers <= before.Failovers || m.FailoverWins <= before.FailoverWins {
		t.Fatalf("failover rung counters not advanced: %+v", m)
	}
	if !c.Degraded() {
		t.Fatal("failover rung: breaker not tracking the killed worker")
	}

	// Rung 4: the open breaker short-circuits the dead worker — the next
	// query skips straight to the replica without burning a connection
	// attempt, and the answer stays exact.
	before = c.Metrics()
	mustExact("breaker")
	if m := c.Metrics(); m.OpenSkips <= before.OpenSkips {
		t.Fatalf("breaker rung: open breaker did not short-circuit: %+v", m)
	}

	// While the worker is down the prober's probes must fail.
	deadline := time.Now().Add(2 * time.Second)
	for c.Metrics().ProbeFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("prober issued no failing probes against the dead worker: %+v", c.Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Rung 5: restart the worker on its old port. The prober rejoins it
	// with no query traffic; the next query is served entirely by
	// primaries again.
	cl.restart(1)
	queriesBefore := c.Metrics().Queries
	deadline = time.Now().Add(5 * time.Second)
	for c.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("prober did not rejoin the restarted worker: %+v", c.Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}
	m := c.Metrics()
	if m.Queries != queriesBefore {
		t.Fatalf("rejoin consumed query traffic: %d queries ran", m.Queries-queriesBefore)
	}
	if m.ProbeRecoveries < 1 {
		t.Fatalf("rejoin rung: no probe recovery recorded: %+v", m)
	}
	st = mustExact("rejoin")
	for _, ss := range st.Shards {
		if ss.Status == "ok" && ss.Replica != 0 {
			t.Fatalf("rejoin rung: group %d still served by replica %d", ss.Shard, ss.Replica)
		}
	}
}

// TestHTTPAnySingleWorkerDeathIsExact is the acceptance proof for the
// replicated tier: at -shards 4 -replicas 2, killing ANY single worker —
// each in turn — yields byte-equal results with zero uncertainty, and the
// restarted worker serves again.
func TestHTTPAnySingleWorkerDeathIsExact(t *testing.T) {
	leakcheck.Check(t)
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, b := buildPair(t, e)
	const shards = 4
	ctx := context.Background()

	clean, _, err := e.IntersectJoin(ctx, a, b, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cl := startHTTPCluster(t, shard.Options{
		Shards:   shards,
		Replicas: 2,
		Retries:  1, RetryBackoff: time.Millisecond,
		// Keep breakers closed across the loop so each iteration tests the
		// failover path itself, not breaker state from the last kill.
		BreakerThreshold: 100,
	}, a, b)

	for victim := 0; victim < shards; victim++ {
		cl.kill(victim)
		got, st, err := cl.coord.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{})
		if err != nil {
			t.Fatalf("kill worker %d: query failed: %v", victim, err)
		}
		if !sameSlice(got, clean) {
			t.Fatalf("kill worker %d: answer differs from clean:\n got %v\nwant %v", victim, got, clean)
		}
		if len(st.Uncertain) != 0 || len(st.UncertainIDs) != 0 || len(st.Degraded) != 0 {
			t.Fatalf("kill worker %d: uncertainty surfaced: %+v", victim, st)
		}
		for _, ss := range st.Shards {
			if ss.Shard == victim && ss.Status == "ok" && ss.Replica != 1 {
				t.Fatalf("kill worker %d: its group served by replica %d, want 1", victim, ss.Replica)
			}
		}
		cl.restart(victim)
	}
}

// TestHTTPBothReplicasDeadDegrades kills both workers holding one home
// group: over HTTP exactly the single-copy degradation contract applies —
// that group's homes go uncertain, every other group stays exact (one of
// them via failover).
func TestHTTPBothReplicasDeadDegrades(t *testing.T) {
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
	cl.kill(1)
	cl.kill(2)

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
		t.Fatalf("Degraded has %d entries, want 1: %v", len(st.Degraded), st.Degraded)
	}
}

// TestHTTPRecvCorruptionIsTransportError flips bytes of a worker response
// on the wire: the CRC integrity header catches it, the attempt is a
// transport error, and the retry recovers the exact answer.
func TestHTTPRecvCorruptionIsTransportError(t *testing.T) {
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
	cl := startHTTPCluster(t, shard.Options{
		Shards:       2,
		Retries:      1,
		RetryBackoff: time.Millisecond,
	}, a, b)

	faultinject.Arm(faultinject.PointShardNetRecv, faultinject.Fault{Corrupt: true, Times: 1})
	got, _, err := cl.coord.IntersectJoin(ctx, "nucleiA", "nucleiB", core.QueryOptions{})
	if err != nil {
		t.Fatalf("query with one corrupted response failed: %v", err)
	}
	if !sameSlice(got, clean) {
		t.Fatalf("answer after corruption retry differs:\n got %v\nwant %v", got, clean)
	}
	if m := cl.coord.Metrics(); m.Retries < 1 {
		t.Fatalf("corrupted response was not retried: %+v", m)
	}
}

// TestWorkerEchoesRequestID pins the correlation contract: the request ID
// a coordinator stamps on a scatter leg comes back on the worker response.
func TestWorkerEchoesRequestID(t *testing.T) {
	leakcheck.Check(t)
	e := core.NewEngine(testEngineOptions())
	defer e.Close()
	a, _ := buildPair(t, e)
	cl := startHTTPCluster(t, shard.Options{Shards: 1}, a)

	req, err := http.NewRequest(http.MethodGet, "http://"+cl.addrs[0]+"/readyz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "rid-campaign-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if got := resp.Header.Get("X-Request-Id"); got != "rid-campaign-7" {
		t.Fatalf("worker echoed request ID %q, want rid-campaign-7", got)
	}
	http.DefaultClient.CloseIdleConnections()
}

// TestWorkerDrainPreservesInFlight cancels a worker's run context while a
// scatter leg is being served and asserts the drain contract: /readyz
// flips to not-ready immediately, the in-flight query completes with the
// exact answer, and the worker exits cleanly within its grace.
func TestWorkerDrainPreservesInFlight(t *testing.T) {
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

	node := shard.NewNode(0, testEngineOptions())
	defer node.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietServerConfig()
	cfg.ShutdownGrace = 10 * time.Second
	w := server.NewWorker(node, cfg)
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	runErr := make(chan error, 1)
	go func() { runErr <- w.Serve(runCtx, ln) }()

	tr := shard.NewHTTPTransport([]string{"http://" + ln.Addr().String()})
	defer tr.Close()
	c := shard.NewWithTransport(tr, shard.Options{Shards: 1})
	defer c.Close()
	for _, d := range []*core.Dataset{a, b} {
		if err := c.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}

	// Hold the first decode inside the worker's engine so the scatter leg
	// is deterministically in flight when the drain begins.
	entered := make(chan struct{})
	hold := make(chan struct{})
	faultinject.Arm(faultinject.PointPPVPDecode, faultinject.Fault{Times: 1, Hook: func() error {
		close(entered)
		<-hold
		return nil
	}})

	type result struct {
		got []core.Pair
		err error
	}
	done := make(chan result, 1)
	go func() {
		got, _, err := c.IntersectJoin(context.Background(), "nucleiA", "nucleiB", core.QueryOptions{})
		done <- result{got, err}
	}()

	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("scatter leg never reached the worker's engine")
	}
	cancelRun() // begin the drain with the leg still held

	// The worker must stop reporting ready while it drains.
	deadline := time.Now().Add(2 * time.Second)
	for tr.CheckHealth(ctx, 0) == nil {
		if time.Now().After(deadline) {
			t.Fatal("draining worker still reports ready")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(hold) // release the leg; the drain lets it finish
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight query was dropped by the drain: %v", res.err)
	}
	if !sameSlice(res.got, clean) {
		t.Fatalf("drained query differs from clean:\n got %v\nwant %v", res.got, clean)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("worker drain failed: %v", err)
	}
}
