package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/ppvp"
	"repro/internal/quarantine"
	"repro/internal/storage"
)

// degradeServer builds a private server (its own engine, so quarantine
// trips don't leak into the shared fixture's tests).
func degradeServer(t *testing.T) (*httptest.Server, *core.Engine, *core.Dataset, *core.Dataset) {
	t.Helper()
	eng := core.NewEngine(core.EngineOptions{Workers: 2})
	t.Cleanup(eng.Close)
	comp := ppvp.DefaultOptions()
	comp.Rounds = 6
	dopts := core.DatasetOptions{Compression: comp, Cuboids: 8}

	// Two independently seeded, offset nuclei sets overlap, so the
	// intersect join has pairs (NucleiPair would be mutually disjoint).
	gen := datagen.NucleiOptions{Count: 12, SubdivisionLevel: 1, Seed: 21}
	a, err := eng.BuildDataset("alpha", datagen.Nuclei(gen), dopts)
	if err != nil {
		t.Fatal(err)
	}
	gen.Seed = 22
	gen.Offset = geom.V(2.5, 1.5, 1)
	b, err := eng.BuildDataset("beta", datagen.Nuclei(gen), dopts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(eng, Config{})
	s.AddDataset(a)
	s.AddDataset(b)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, eng, a, b
}

func TestReadyzReportsDegraded(t *testing.T) {
	ts, eng, a, _ := degradeServer(t)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "ready") {
		t.Fatalf("clean readyz = %d %q", resp.StatusCode, body)
	}

	eng.Quarantine().Trip(a.Tileset.Object(0).Comp.ID(), "test trip")
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("degraded readyz status = %d, want 200 (degraded beats dead)", resp.StatusCode)
	}
	if !strings.Contains(string(body), "degraded") || !strings.Contains(string(body), "1 objects quarantined") {
		t.Fatalf("degraded readyz body = %q", body)
	}
}

func TestStatuszExposesQuarantine(t *testing.T) {
	ts, eng, a, _ := degradeServer(t)
	blob := a.Tileset.Object(3).Comp.ID()
	eng.Quarantine().Trip(blob, "flaky blob")

	var out struct {
		Ready    bool     `json:"ready"`
		Datasets []string `json:"datasets"`
		Inflight struct {
			Used int `json:"used"`
			Max  int `json:"max"`
		} `json:"inflight"`
		Cache      map[string]int64 `json:"cache"`
		Quarantine struct {
			Stats   quarantine.Stats `json:"stats"`
			Entries []struct {
				DatasetName string `json:"dataset"`
				Blob        int64  `json:"blob"`
				Object      int64  `json:"object"`
				State       string `json:"state"`
				Reason      string `json:"reason"`
			} `json:"entries"`
		} `json:"quarantine"`
	}
	if resp := getJSON(t, ts.URL+"/statusz", &out); resp.StatusCode != 200 {
		t.Fatalf("statusz status = %d", resp.StatusCode)
	}
	if !out.Ready || len(out.Datasets) != 2 {
		t.Fatalf("statusz ready/datasets = %v/%v", out.Ready, out.Datasets)
	}
	if out.Inflight.Max <= 0 {
		t.Fatalf("inflight.max = %d", out.Inflight.Max)
	}
	for _, k := range []string{"decode_failures", "warm_bytes", "warm_serves"} {
		if _, ok := out.Cache[k]; !ok {
			t.Fatalf("cache stats missing %s", k)
		}
	}
	if out.Quarantine.Stats.Open != 1 || out.Quarantine.Stats.Trips != 1 {
		t.Fatalf("quarantine stats = %+v", out.Quarantine.Stats)
	}
	if len(out.Quarantine.Entries) != 1 {
		t.Fatalf("quarantine entries = %+v", out.Quarantine.Entries)
	}
	e := out.Quarantine.Entries[0]
	if e.DatasetName != "alpha" || e.Blob != blob || e.Object != 3 || e.State != "open" || e.Reason != "flaky blob" {
		t.Fatalf("quarantine entry = %+v", e)
	}
}

// TestStatuszListsSalvageDrops: an object a salvage load dropped has no
// blob for a breaker to track; /statusz lists it under its dataset, and
// /readyz stays degraded while that dataset is registered.
func TestStatuszListsSalvageDrops(t *testing.T) {
	ts, _, a, _ := degradeServer(t)
	a.Salvage = &storage.SalvageReport{ObjectsDropped: []storage.DroppedObject{{ID: 4, Reason: "checksum mismatch"}}}

	var out struct {
		Dropped    map[string][]storage.DroppedObject `json:"dropped"`
		Quarantine struct {
			Stats quarantine.Stats `json:"stats"`
		} `json:"quarantine"`
	}
	getJSON(t, ts.URL+"/statusz", &out)
	if got := out.Dropped["alpha"]; len(out.Dropped) != 1 || len(got) != 1 || got[0].ID != 4 {
		t.Fatalf("statusz dropped = %+v, want alpha's object 4", out.Dropped)
	}
	if out.Quarantine.Stats.Tracked != 0 {
		t.Fatalf("a dropped object reached the breaker: %+v", out.Quarantine.Stats)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "0 objects quarantined, 1 dropped by salvage") {
		t.Fatalf("readyz = %d %q, want 200 degraded by the drop", resp.StatusCode, body)
	}
}

func TestQueryOnErrorPolicies(t *testing.T) {
	ts, eng, a, b := degradeServer(t)
	// Trip a target object that provably participates in the join, so both
	// policies must confront it.
	clean, _, err := eng.IntersectJoin(t.Context(), a, b, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) == 0 {
		t.Fatal("workload produced no pairs")
	}
	bad := clean[0].Target
	eng.Quarantine().Trip(a.Tileset.Object(bad).Comp.ID(), "test trip")

	// FailFast (the default) refuses the quarantined object.
	var errOut map[string]string
	resp := postJSON(t, ts.URL+"/query/intersect",
		`{"target":"alpha","source":"beta"}`, &errOut)
	if resp.StatusCode != 500 || !strings.Contains(errOut["error"], "quarantined") {
		t.Fatalf("fail_fast = %d %v, want 500 naming quarantine", resp.StatusCode, errOut)
	}

	// Degrade answers with the certain pairs and reports the skip.
	var out struct {
		Pairs []core.Pair `json:"pairs"`
		Stats struct {
			Degraded []struct {
				Dataset string `json:"dataset"`
				Object  int64  `json:"object"`
				Err     string `json:"error"`
			} `json:"degraded"`
			Uncertain       []core.Pair `json:"uncertain"`
			QuarantineSkips int64       `json:"quarantine_skips"`
		} `json:"stats"`
	}
	resp = postJSON(t, ts.URL+"/query/intersect",
		`{"target":"alpha","source":"beta","on_error":"degrade","error_budget":-1}`, &out)
	if resp.StatusCode != 200 {
		t.Fatalf("degrade status = %d", resp.StatusCode)
	}
	if len(out.Stats.Degraded) == 0 || out.Stats.QuarantineSkips == 0 {
		t.Fatalf("degrade stats missing failure accounting: %+v", out.Stats)
	}
	d := out.Stats.Degraded[0]
	if d.Dataset != "alpha" || d.Object != bad || !strings.Contains(d.Err, "quarantined") {
		t.Fatalf("degraded entry = %+v", d)
	}
	for _, p := range out.Pairs {
		if p.Target == bad {
			t.Fatalf("quarantined target leaked into certain pairs: %v", p)
		}
	}

	// Unknown policy is a 400.
	resp = postJSON(t, ts.URL+"/query/intersect",
		`{"target":"alpha","source":"beta","on_error":"shrug"}`, &errOut)
	if resp.StatusCode != 400 {
		t.Fatalf("bad on_error status = %d", resp.StatusCode)
	}
}
