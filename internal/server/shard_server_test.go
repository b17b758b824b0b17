package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/ppvp"
	"repro/internal/shard"
)

// shardedServer builds a fresh sharded server over two overlapping datasets,
// its shards served by loopback workers. Fresh per test: the fault-injection
// registry and the shard breaker are process-global state the tests mutate.
func shardedServer(t *testing.T, opts shard.Options) (*httptest.Server, *shard.Coordinator, *core.Dataset) {
	t.Helper()
	eng := core.NewEngine(core.EngineOptions{Workers: 2})
	t.Cleanup(eng.Close)
	comp := ppvp.DefaultOptions()
	comp.Rounds = 6
	dopts := core.DatasetOptions{Compression: comp, Cuboids: 8}

	gen := datagen.NucleiOptions{Count: 12, SubdivisionLevel: 1, Seed: 61}
	a, err := eng.BuildDataset("alpha", datagen.Nuclei(gen), dopts)
	if err != nil {
		t.Fatal(err)
	}
	gen.Seed = 62
	gen.Offset = geom.V(2.5, 1.5, 1)
	b, err := eng.BuildDataset("beta", datagen.Nuclei(gen), dopts)
	if err != nil {
		t.Fatal(err)
	}

	urls := make([]string, opts.Shards)
	for i := range urls {
		node := shard.NewNode(i, core.EngineOptions{Workers: 2})
		t.Cleanup(node.Close)
		ws := httptest.NewServer(NewWorker(node, Config{}).Handler())
		t.Cleanup(ws.Close)
		urls[i] = ws.URL
	}
	tr := shard.NewHTTPTransport(urls)
	t.Cleanup(tr.Close)
	coord := shard.NewWithTransport(tr, opts)
	t.Cleanup(coord.Close)
	s := NewSharded(coord, Config{})
	if err := s.AddDataset(a); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset(b); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, coord, a
}

// shardedQueryResponse is the JSON shape the sharded query tests decode.
type shardedQueryResponse struct {
	Pairs []struct {
		Target int64 `json:"target"`
		Source int64 `json:"source"`
	} `json:"pairs"`
	Neighbors []struct {
		Target int64 `json:"target"`
		Source int64 `json:"source"`
	} `json:"neighbors"`
	Stats struct {
		Results      int64   `json:"results"`
		UncertainIDs []int64 `json:"uncertain_ids"`
		Degraded     []struct {
			Dataset string `json:"dataset"`
			Object  int64  `json:"object"`
			Err     string `json:"error"`
		} `json:"degraded"`
		Shards []struct {
			Shard    int    `json:"shard"`
			Status   string `json:"status"`
			Attempts int    `json:"attempts"`
			Stats    *struct {
				Results int64 `json:"results"`
			} `json:"stats"`
		} `json:"shards"`
	} `json:"stats"`
}

// TestShardedServerQuery proves a sharded server answers the join endpoints,
// that stats.results counts the answer — a kNN leg joins each target
// against all its candidates at once, so it reports each neighbor once —
// and that the response stats carry the per-shard breakdown.
func TestShardedServerQuery(t *testing.T) {
	ts, _, _ := shardedServer(t, shard.Options{Shards: 4})

	for _, tc := range []struct{ path, body string }{
		{"/query/intersect", `{"target":"alpha","source":"beta"}`},
		{"/query/nn", `{"target":"alpha","source":"beta","k":3}`},
	} {
		var out shardedQueryResponse
		resp := postJSON(t, ts.URL+tc.path, tc.body, &out)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", tc.path, resp.StatusCode)
		}
		answer := int64(len(out.Pairs) + len(out.Neighbors))
		if answer == 0 {
			t.Fatalf("%s: sharded query answered nothing; fixture too sparse", tc.path)
		}
		if out.Stats.Results != answer {
			t.Errorf("%s: stats.results = %d, answer has %d entries", tc.path, out.Stats.Results, answer)
		}
		if len(out.Stats.Shards) != 4 {
			t.Fatalf("%s: stats.shards has %d entries, want 4", tc.path, len(out.Stats.Shards))
		}
		var sum int64
		for _, ss := range out.Stats.Shards {
			if ss.Status != "ok" && ss.Status != "skipped" {
				t.Fatalf("%s: shard %d status %q", tc.path, ss.Shard, ss.Status)
			}
			if ss.Stats != nil {
				sum += ss.Stats.Results
			}
		}
		if sum != out.Stats.Results {
			t.Fatalf("%s: Σ per-shard results = %d, coordinator total = %d", tc.path, sum, out.Stats.Results)
		}
	}
}

// TestShardedServerDeadShardDegrades is the acceptance scenario: one shard
// killed at the transport, the query still returns HTTP 200 with a certain
// answer and the dead shard's home objects listed in uncertain_ids.
func TestShardedServerDeadShardDegrades(t *testing.T) {
	const dead = 1
	ts, _, a := shardedServer(t, shard.Options{Shards: 4, Retries: 1, RetryBackoff: -1})

	// Clean run first, for the expected certain answer.
	var clean shardedQueryResponse
	if resp := postJSON(t, ts.URL+"/query/intersect", `{"target":"alpha","source":"beta"}`, &clean); resp.StatusCode != 200 {
		t.Fatalf("clean status %d", resp.StatusCode)
	}

	faultinject.Arm(fmt.Sprintf("%s.%d", faultinject.PointShardNetSend, dead),
		faultinject.Fault{Err: faultinject.ErrInjected})
	defer faultinject.Reset()

	// Fail-fast: the lost shard is a backend failure, 502.
	if resp := postJSON(t, ts.URL+"/query/intersect", `{"target":"alpha","source":"beta"}`, nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("fail-fast status %d, want 502", resp.StatusCode)
	}

	// Degrade: 200, certain answer = clean answer minus the dead shard's
	// home targets, which show up in uncertain_ids instead.
	var out shardedQueryResponse
	if resp := postJSON(t, ts.URL+"/query/intersect", `{"target":"alpha","source":"beta","on_error":"degrade"}`, &out); resp.StatusCode != 200 {
		t.Fatalf("degrade status %d, want 200", resp.StatusCode)
	}
	deadHome := make(map[int64]bool)
	for _, o := range a.Tileset.Objects {
		if o != nil && o.Cuboid%4 == dead {
			deadHome[o.ID] = true
		}
	}
	if len(deadHome) == 0 {
		t.Fatal("no objects homed on the dead shard; fixture too sparse")
	}
	for _, p := range out.Pairs {
		if deadHome[p.Target] {
			t.Fatalf("pair with dead-shard target %d reported as certain", p.Target)
		}
	}
	want := 0
	for _, p := range clean.Pairs {
		if !deadHome[p.Target] {
			want++
		}
	}
	if len(out.Pairs) != want {
		t.Fatalf("degraded answer has %d pairs, want %d (clean minus dead-shard targets)", len(out.Pairs), want)
	}
	uncertain := make(map[int64]bool, len(out.Stats.UncertainIDs))
	for _, id := range out.Stats.UncertainIDs {
		uncertain[id] = true
	}
	for id := range deadHome {
		if !uncertain[id] {
			t.Fatalf("dead shard's object %d missing from uncertain_ids", id)
		}
	}
	if len(out.Stats.Degraded) == 0 {
		t.Fatal("degraded list empty; the shard loss should be recorded")
	}
	errorShards := 0
	for _, ss := range out.Stats.Shards {
		if ss.Status == "error" {
			errorShards++
			if ss.Shard != dead {
				t.Fatalf("shard %d reported error, only %d is dead", ss.Shard, dead)
			}
			if ss.Attempts != 2 {
				t.Fatalf("dead shard made %d attempts, want 2 (1 + 1 retry)", ss.Attempts)
			}
		}
	}
	if errorShards != 1 {
		t.Fatalf("%d shards in error, want 1", errorShards)
	}
}

// TestShardedServerHealthEndpoints checks /readyz flips to the degraded
// body when a shard breaker opens, /statusz carries the shard section, and
// /metrics exports the threedpro_shard_* families.
func TestShardedServerHealthEndpoints(t *testing.T) {
	ts, coord, _ := shardedServer(t, shard.Options{
		Shards: 3, Retries: -1, BreakerThreshold: 1, BreakerCooldown: time.Hour,
	})

	body := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if code, text := body("/readyz"); code != 200 || !strings.Contains(text, "ready") {
		t.Fatalf("fresh readyz: %d %q", code, text)
	}

	var status struct {
		Shards struct {
			Count    int  `json:"count"`
			Replicas int  `json:"replicas"`
			Degraded bool `json:"degraded"`
			Health   []struct {
				Shard int    `json:"shard"`
				State string `json:"state"`
			} `json:"health"`
			Metrics map[string]any `json:"metrics"`
		} `json:"shards"`
	}
	if resp := getJSON(t, ts.URL+"/statusz", &status); resp.StatusCode != 200 {
		t.Fatalf("statusz status %d", resp.StatusCode)
	}
	if status.Shards.Count != 3 || len(status.Shards.Health) != 3 || status.Shards.Degraded {
		t.Fatalf("fresh statusz shards = %+v", status.Shards)
	}
	if status.Shards.Replicas != 1 {
		t.Fatalf("statusz replicas = %d, want 1", status.Shards.Replicas)
	}
	for _, key := range []string{"failovers", "failover_wins", "probes", "probe_recoveries", "probe_failures"} {
		if _, ok := status.Shards.Metrics[key]; !ok {
			t.Errorf("statusz shard metrics missing %q: %v", key, status.Shards.Metrics)
		}
	}

	// Kill shard 0 and trip its breaker with one degrade query.
	faultinject.Arm(faultinject.PointShardNetSend+".0", faultinject.Fault{Err: faultinject.ErrInjected})
	defer faultinject.Reset()
	if resp := postJSON(t, ts.URL+"/query/intersect", `{"target":"alpha","source":"beta","on_error":"degrade"}`, nil); resp.StatusCode != 200 {
		t.Fatalf("tripping query status %d", resp.StatusCode)
	}
	if !coord.Degraded() {
		t.Fatal("breaker did not open after the shard died")
	}

	if code, text := body("/readyz"); code != 200 || !strings.Contains(text, "degraded") || !strings.Contains(text, "shard breakers open") {
		t.Fatalf("degraded readyz: %d %q (want 200 + degraded body)", code, text)
	}
	if resp := getJSON(t, ts.URL+"/statusz", &status); resp.StatusCode != 200 {
		t.Fatalf("statusz status %d", resp.StatusCode)
	}
	if !status.Shards.Degraded {
		t.Fatal("statusz does not report the shard tier degraded")
	}
	open := 0
	for _, h := range status.Shards.Health {
		if h.State != "closed" {
			open++
			if h.Shard != 0 {
				t.Fatalf("shard %d state %q, only 0 was killed", h.Shard, h.State)
			}
		}
	}
	if open != 1 {
		t.Fatalf("%d shards non-closed, want 1", open)
	}

	code, metrics := body("/metrics")
	if code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	for _, family := range []string{
		"threedpro_shards 3",
		"threedpro_shard_breakers_open 1",
		"threedpro_shard_queries_total",
		"threedpro_shard_degraded_queries_total 1",
		"threedpro_shard_calls_total",
		"threedpro_shard_retries_total",
		"threedpro_shard_hedges_total",
		"threedpro_shard_hedge_wins_total",
		"threedpro_shard_errors_total 1",
		"threedpro_shard_open_skips_total",
		"threedpro_shard_replicas 1",
		"threedpro_shard_failover_total",
		"threedpro_shard_failover_wins_total",
		"threedpro_shard_prober_probes_total",
		"threedpro_shard_prober_recoveries_total",
		"threedpro_shard_prober_failures_total",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
}
