package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/ppvp"
)

// obsServer builds a dedicated server (the shared testServer would make the
// metric assertions order-dependent across tests) with one small dataset
// pair and returns it alongside the underlying *Server for config tweaks.
func obsServer(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	eng := core.NewEngine(core.EngineOptions{Workers: 2})
	comp := ppvp.DefaultOptions()
	comp.Rounds = 6
	dopts := core.DatasetOptions{Compression: comp, Cuboids: 8}
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(60, 60, 60)}
	ma, mb := datagen.NucleiPair(datagen.NucleiOptions{Count: 8, SubdivisionLevel: 1, Seed: 51, Space: space})
	a, err := eng.BuildDataset("alpha", ma, dopts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.BuildDataset("beta", mb, dopts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(eng, cfg)
	s.AddDataset(a)
	s.AddDataset(b)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

// TestMetricsEndpoint is the observability smoke test: after serving a
// query, /metrics must expose valid Prometheus text containing every
// documented family with its documented type.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := obsServer(t, Config{})
	if resp := postJSON(t, ts.URL+"/query/within",
		`{"target":"alpha","source":"beta","dist":25}`, nil); resp.StatusCode != 200 {
		t.Fatalf("query status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheusText(string(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	want := map[string]string{
		"threedpro_queries_total":               "counter",
		"threedpro_query_duration_seconds":      "histogram",
		"threedpro_query_decode_rounds":         "histogram",
		"threedpro_admission_rejected_total":    "counter",
		"threedpro_queries_inflight":            "gauge",
		"threedpro_cache_hits_total":            "counter",
		"threedpro_cache_misses_total":          "counter",
		"threedpro_cache_evictions_total":       "counter",
		"threedpro_cache_warm_starts_total":     "counter",
		"threedpro_cache_warm_serves_total":     "counter",
		"threedpro_cache_rounds_applied_total":  "counter",
		"threedpro_cache_rounds_skipped_total":  "counter",
		"threedpro_cache_decode_failures_total": "counter",
		"threedpro_cache_bytes_used":            "gauge",
		"threedpro_cache_warm_bytes":            "gauge",
		"threedpro_quarantine_open":             "gauge",
		"threedpro_quarantine_half_open":        "gauge",
		"threedpro_quarantine_tracked":          "gauge",
		"threedpro_quarantine_trips_total":      "counter",
		"threedpro_quarantine_failures_total":   "counter",
		"threedpro_quarantine_skips_total":      "counter",
		"threedpro_quarantine_reinstated_total": "counter",
	}
	for _, c := range core.Counters {
		want["threedpro_query_"+c.Name+"_total"] = "counter"
	}
	for name, typ := range want {
		if got, ok := fams[name]; !ok {
			t.Errorf("family %q missing from scrape", name)
		} else if got != typ {
			t.Errorf("family %q has type %q, want %q", name, got, typ)
		}
	}
	// The query above must have been counted.
	if !strings.Contains(string(body), `threedpro_queries_total{kind="within",status="ok"} 1`) {
		t.Errorf("within query not counted:\n%s", grepLines(string(body), "threedpro_queries_total"))
	}
	if !strings.Contains(string(body), "threedpro_cache_misses_total") {
		t.Error("cache misses family missing")
	}
}

// TestAccelCountersExposed: a repeated AABB query builds its trees once; the
// per-query stats say so, and /metrics and /statusz carry the running totals.
func TestAccelCountersExposed(t *testing.T) {
	ts, _ := obsServer(t, Config{})
	var first, second struct {
		Stats struct {
			AccelBuilds int64 `json:"accel_builds"`
			AccelReuses int64 `json:"accel_reuses"`
		} `json:"stats"`
	}
	const body = `{"target":"alpha","source":"beta","dist":25,"accel":"aabb"}`
	if resp := postJSON(t, ts.URL+"/query/within", body, &first); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/query/within", body, &second); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if first.Stats.AccelBuilds == 0 || second.Stats.AccelBuilds != 0 || second.Stats.AccelReuses == 0 {
		t.Fatalf("accel builds/reuses: first %d/%d, second %d/%d; want builds then pure reuse",
			first.Stats.AccelBuilds, first.Stats.AccelReuses, second.Stats.AccelBuilds, second.Stats.AccelReuses)
	}
	builds := first.Stats.AccelBuilds
	reuses := first.Stats.AccelReuses + second.Stats.AccelReuses

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("threedpro_query_accel_builds_total %d\n", builds),
		fmt.Sprintf("threedpro_query_accel_reuses_total %d\n", reuses),
	} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, grepLines(string(scrape), "threedpro_query_accel"))
		}
	}

	var status struct {
		Accel map[string]float64 `json:"accel"`
	}
	getJSON(t, ts.URL+"/statusz", &status)
	if status.Accel["builds"] != float64(builds) || status.Accel["reuses"] != float64(reuses) {
		t.Errorf("/statusz accel = %v, want builds %d reuses %d", status.Accel, builds, reuses)
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestStatsJSONZeroCounters: the failure counters must serialize even when
// zero — a scraper has to distinguish "no failures" from "field not
// reported". (They used to carry omitempty and vanish on healthy queries.)
func TestStatsJSONZeroCounters(t *testing.T) {
	ts, _ := obsServer(t, Config{})
	var out struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if resp := postJSON(t, ts.URL+"/query/point",
		`{"dataset":"alpha","point":[30,30,30]}`, &out); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, key := range []string{"quarantine_skips", "decode_retries", "decode_failures"} {
		raw, ok := out.Stats[key]
		if !ok {
			t.Errorf("healthy query's stats omit %q", key)
			continue
		}
		if string(raw) != "0" {
			t.Errorf("stats[%q] = %s, want 0", key, raw)
		}
	}
}

// goldenStats is a coordinated query's Stats with every counter distinct and
// non-zero, every list non-empty, a trace event, and one ok and one failed
// shard, whose LOD slices are nil.
func goldenStats() *core.Stats {
	st := &core.Stats{
		Elapsed: 3456789 * time.Nanosecond, FilterTime: 310007, DecodeTime: 520011, GeomTime: 730013,
		Candidates: 41, Results: 43, Decodes: 47, CacheHits: 53,
		WarmStarts: 59, WarmServes: 109, RoundsApplied: 61, RoundsSkipped: 67,
		QuarantineSkips: 71, DecodeRetries: 73, DecodeFailures: 79,
		BatchesDispatched: 83, BatchPairs: 89, LODsSkippedByMargin: 97, BoundsDecisive: 101,
		AccelBuilds: 103, AccelReuses: 107,
		PairsEvaluated: []int64{13, 7, 3}, PairsPruned: []int64{6, 4, 3},
		Uncertain:    []core.Pair{{Target: 8, Source: -1}},
		UncertainIDs: []int64{8},
		Degraded:     []core.ObjectError{{Dataset: "nuclei", Object: -1, Err: "shard 1: connection refused"}},
		Trace:        []obs.TraceEvent{{Name: "decode", LOD: 1, Count: 5, FirstUS: 12, LastUS: 340, TotalUS: 290}},
	}
	leg := *st
	st.Shards = []core.ShardStat{
		{Shard: 0, Status: "ok", Attempts: 2, Hedged: true, HedgeWon: true, Elapsed: 2500003, Stats: &leg},
		{Shard: 1, Status: "error", Attempts: 3, Replica: -1, Err: "connection refused", Elapsed: 1200007,
			Stats: &core.Stats{UncertainIDs: []int64{8}, Degraded: st.Degraded}},
	}
	return st
}

// TestFrontStatsGolden pins the front's stats object: testdata/front_stats.json
// is goldenStats as the front wrote it before the counter table existed, plus
// the rows added to the table since (warm_serves), and the table-driven
// encoder must produce the same keys and values.
func TestFrontStatsGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/front_stats.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal((*frontStats)(goldenStats()))
	if err != nil {
		t.Fatal(err)
	}
	var want, have map[string]any
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &have); err != nil {
		t.Fatalf("front stats are not JSON: %v\n%s", err, got)
	}
	if !reflect.DeepEqual(have, want) {
		t.Errorf("front stats differ from the golden:\n got %s\nwant %s", got, golden)
	}
}

// TestQueryTraceOverHTTP: "trace": true in the request returns the span
// timeline in stats.trace; without it the field is absent.
func TestQueryTraceOverHTTP(t *testing.T) {
	ts, _ := obsServer(t, Config{})
	var traced struct {
		Stats struct {
			Trace []obs.TraceEvent `json:"trace"`
		} `json:"stats"`
	}
	if resp := postJSON(t, ts.URL+"/query/nn",
		`{"target":"alpha","source":"beta","trace":true}`, &traced); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(traced.Stats.Trace) == 0 {
		t.Fatal("traced query returned no trace events")
	}
	names := map[string]bool{}
	for _, ev := range traced.Stats.Trace {
		names[ev.Name] = true
	}
	if !names["filter"] || !names["evaluate"] {
		t.Errorf("trace lacks expected spans: %v", names)
	}

	var plain struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if resp := postJSON(t, ts.URL+"/query/nn",
		`{"target":"alpha","source":"beta"}`, &plain); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, ok := plain.Stats["trace"]; ok {
		t.Error("untraced query serialized a trace field")
	}
}

// TestDebugQueries: the ring buffer surfaces recent queries newest-first
// with their kind, status, and counters.
func TestDebugQueries(t *testing.T) {
	ts, _ := obsServer(t, Config{})
	postJSON(t, ts.URL+"/query/point", `{"dataset":"alpha","point":[30,30,30]}`, nil)
	postJSON(t, ts.URL+"/query/range", `{"dataset":"alpha","min":[0,0,0],"max":[60,60,60]}`, nil)

	var out struct {
		Total   int64              `json:"total"`
		Queries []obs.QuerySummary `json:"queries"`
	}
	if resp := getJSON(t, ts.URL+"/debug/queries", &out); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Total != 2 || len(out.Queries) != 2 {
		t.Fatalf("total = %d, entries = %d, want 2/2", out.Total, len(out.Queries))
	}
	// Newest first.
	if out.Queries[0].Kind != "range" || out.Queries[1].Kind != "point" {
		t.Errorf("order: %q then %q", out.Queries[0].Kind, out.Queries[1].Kind)
	}
	for _, qs := range out.Queries {
		if qs.Status != "ok" {
			t.Errorf("query %q status %q", qs.Kind, qs.Status)
		}
		if qs.ID == "" {
			t.Errorf("query %q has no request ID", qs.Kind)
		}
		if qs.ElapsedMS < 0 {
			t.Errorf("query %q elapsed %v", qs.Kind, qs.ElapsedMS)
		}
	}
	// Parse-level failures (unknown dataset, bad box) never reach the
	// engine and must not pollute the ring.
	postJSON(t, ts.URL+"/query/point", `{"dataset":"nope","point":[0,0,0]}`, nil)
	getJSON(t, ts.URL+"/debug/queries", &out)
	if out.Total != 2 {
		t.Errorf("parse failure entered the query ring: total = %d", out.Total)
	}
}

// TestRequestIDHeader: every response carries an X-Request-ID, and an
// incoming ID is honored end to end.
func TestRequestIDHeader(t *testing.T) {
	ts, _ := obsServer(t, Config{})
	resp := getJSON(t, ts.URL+"/healthz", nil)
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Error("no X-Request-ID on response")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-chosen-id")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if id := resp2.Header.Get("X-Request-ID"); id != "caller-chosen-id" {
		t.Errorf("incoming ID not honored: got %q", id)
	}

	// The ID propagates into the query log.
	req, _ = http.NewRequest("POST", ts.URL+"/query/point", strings.NewReader(`{"dataset":"alpha","point":[30,30,30]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "query-trace-id")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	var out struct {
		Queries []obs.QuerySummary `json:"queries"`
	}
	getJSON(t, ts.URL+"/debug/queries", &out)
	if len(out.Queries) == 0 || out.Queries[0].ID != "query-trace-id" {
		t.Errorf("query log did not record the caller's request ID: %+v", out.Queries)
	}
}

// TestPprofGate: the profiling endpoints exist only when EnablePprof is set.
func TestPprofGate(t *testing.T) {
	tsOff, _ := obsServer(t, Config{})
	if resp := getJSON(t, tsOff.URL+"/debug/pprof/", nil); resp.StatusCode != 404 {
		t.Errorf("pprof reachable without the flag: status %d", resp.StatusCode)
	}
	tsOn, _ := obsServer(t, Config{EnablePprof: true})
	if resp := getJSON(t, tsOn.URL+"/debug/pprof/", nil); resp.StatusCode != 200 {
		t.Errorf("pprof flag set but index returned %d", resp.StatusCode)
	}
}
