package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/ppvp"
)

var (
	srvOnce sync.Once
	srv     *httptest.Server
	srvErr  error
)

// testServer spins up one shared server with two small datasets.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srvOnce.Do(func() {
		eng := core.NewEngine(core.EngineOptions{Workers: 2})
		comp := ppvp.DefaultOptions()
		comp.Rounds = 6
		dopts := core.DatasetOptions{Compression: comp, Cuboids: 8}

		space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(60, 60, 60)}
		ma, mb := datagen.NucleiPair(datagen.NucleiOptions{Count: 8, SubdivisionLevel: 1, Seed: 51, Space: space})
		var a, b *core.Dataset
		a, srvErr = eng.BuildDataset("alpha", ma, dopts)
		if srvErr != nil {
			return
		}
		b, srvErr = eng.BuildDataset("beta", mb, dopts)
		if srvErr != nil {
			return
		}
		s := NewWithConfig(eng, Config{})
		s.AddDataset(a)
		s.AddDataset(b)
		srv = httptest.NewServer(s.Handler())
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srv
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response of %s: %v", url, err)
		}
	}
	return resp
}

func TestListAndGetDatasets(t *testing.T) {
	ts := testServer(t)
	var list []map[string]any
	if resp := getJSON(t, ts.URL+"/datasets", &list); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(list) != 2 {
		t.Fatalf("datasets = %d", len(list))
	}
	if list[0]["name"] != "alpha" || list[1]["name"] != "beta" {
		t.Errorf("names: %v", list)
	}

	var one map[string]any
	if resp := getJSON(t, ts.URL+"/datasets/alpha", &one); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if one["objects"].(float64) != 8 {
		t.Errorf("objects = %v", one["objects"])
	}

	if resp := getJSON(t, ts.URL+"/datasets/nope", nil); resp.StatusCode != 404 {
		t.Errorf("missing dataset: status %d", resp.StatusCode)
	}
}

func TestGetObjectFormats(t *testing.T) {
	ts := testServer(t)

	var obj struct {
		LOD      int          `json:"lod"`
		Vertices [][3]float64 `json:"vertices"`
		Faces    [][3]int32   `json:"faces"`
		Volume   float64      `json:"volume"`
	}
	if resp := getJSON(t, ts.URL+"/datasets/alpha/objects/0?lod=0", &obj); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if obj.LOD != 0 || len(obj.Vertices) == 0 || len(obj.Faces) == 0 || obj.Volume <= 0 {
		t.Errorf("json object: %+v", obj)
	}

	// OFF and PLY round-trip through the mesh parsers.
	resp, err := http.Get(ts.URL + "/datasets/alpha/objects/0?format=off")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	m, err := mesh.ReadOFF(&buf)
	if err != nil || m.NumFaces() == 0 {
		t.Fatalf("OFF endpoint: %v", err)
	}
	resp, err = http.Get(ts.URL + "/datasets/alpha/objects/0?format=ply")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	// OFF carries every coordinate exactly (%g), so the object read back
	// from it must export to the same PLY bytes the endpoint served.
	var want bytes.Buffer
	if err := m.WritePLY(&want); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want.String() {
		t.Fatalf("PLY endpoint served:\n%s\nwant:\n%s", buf.String(), want.String())
	}

	// Errors.
	if resp := getJSON(t, ts.URL+"/datasets/alpha/objects/999", nil); resp.StatusCode != 404 {
		t.Errorf("oob object: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/datasets/alpha/objects/0?lod=99", nil); resp.StatusCode != 400 {
		t.Errorf("oob lod: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/datasets/alpha/objects/0?format=stl", nil); resp.StatusCode != 400 {
		t.Errorf("bad format: %d", resp.StatusCode)
	}
}

func TestQueryEndpoints(t *testing.T) {
	ts := testServer(t)

	var nn struct {
		Neighbors []core.Neighbor `json:"neighbors"`
		Stats     map[string]any  `json:"stats"`
	}
	resp := postJSON(t, ts.URL+"/query/nn",
		`{"target":"alpha","source":"beta","paradigm":"fpr","accel":"aabb"}`, &nn)
	if resp.StatusCode != 200 {
		t.Fatalf("nn status %d", resp.StatusCode)
	}
	if len(nn.Neighbors) != 8 {
		t.Fatalf("neighbors = %d", len(nn.Neighbors))
	}
	for _, n := range nn.Neighbors {
		if n.Dist <= 0 {
			t.Errorf("neighbor dist %v", n.Dist)
		}
	}
	if nn.Stats["results"].(float64) != 8 {
		t.Errorf("stats: %v", nn.Stats)
	}

	var within struct {
		Pairs []core.Pair `json:"pairs"`
	}
	resp = postJSON(t, ts.URL+"/query/within",
		`{"target":"alpha","source":"beta","dist":25}`, &within)
	if resp.StatusCode != 200 {
		t.Fatalf("within status %d", resp.StatusCode)
	}
	if len(within.Pairs) == 0 {
		t.Error("no within pairs at dist 25")
	}

	var isect struct {
		Pairs []core.Pair `json:"pairs"`
	}
	resp = postJSON(t, ts.URL+"/query/intersect",
		`{"target":"alpha","source":"beta","accel":"brute"}`, &isect)
	if resp.StatusCode != 200 {
		t.Fatalf("intersect status %d", resp.StatusCode)
	}
	// Disjoint pair: no intersections expected.
	if len(isect.Pairs) != 0 {
		t.Errorf("unexpected intersections: %v", isect.Pairs)
	}
}

func TestRangeAndPointEndpoints(t *testing.T) {
	ts := testServer(t)

	var rangeOut struct {
		Objects []int64 `json:"objects"`
	}
	resp := postJSON(t, ts.URL+"/query/range",
		`{"dataset":"alpha","min":[0,0,0],"max":[60,60,60]}`, &rangeOut)
	if resp.StatusCode != 200 {
		t.Fatalf("range status %d", resp.StatusCode)
	}
	if len(rangeOut.Objects) != 8 {
		t.Errorf("whole-space range returned %d of 8", len(rangeOut.Objects))
	}

	// Point at an object's centroid.
	var obj struct {
		Vertices [][3]float64 `json:"vertices"`
	}
	getJSON(t, ts.URL+"/datasets/alpha/objects/0", &obj)
	var cx, cy, cz float64
	for _, v := range obj.Vertices {
		cx += v[0]
		cy += v[1]
		cz += v[2]
	}
	n := float64(len(obj.Vertices))
	var pointOut struct {
		Objects []int64 `json:"objects"`
	}
	body := fmt.Sprintf(`{"dataset":"alpha","point":[%g,%g,%g]}`, cx/n, cy/n, cz/n)
	resp = postJSON(t, ts.URL+"/query/point", body, &pointOut)
	if resp.StatusCode != 200 {
		t.Fatalf("point status %d", resp.StatusCode)
	}
	if len(pointOut.Objects) != 1 || pointOut.Objects[0] != 0 {
		t.Errorf("point lookup: %v", pointOut.Objects)
	}
}

// TestSchedOptionAndStats: the sched request option selects the LOD
// scheduler, both spellings answer identically, and the response stats
// carry the margin counters.
func TestSchedOptionAndStats(t *testing.T) {
	ts := testServer(t)

	type out struct {
		Pairs []core.Pair    `json:"pairs"`
		Stats map[string]any `json:"stats"`
	}
	var static, margin out
	resp := postJSON(t, ts.URL+"/query/within",
		`{"target":"alpha","source":"beta","dist":25,"paradigm":"fpr","sched":"static"}`, &static)
	if resp.StatusCode != 200 {
		t.Fatalf("static status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/query/within",
		`{"target":"alpha","source":"beta","dist":25,"paradigm":"fpr","sched":"margin"}`, &margin)
	if resp.StatusCode != 200 {
		t.Fatalf("margin status %d", resp.StatusCode)
	}
	if fmt.Sprint(margin.Pairs) != fmt.Sprint(static.Pairs) {
		t.Errorf("margin pairs %v != static pairs %v", margin.Pairs, static.Pairs)
	}
	for _, key := range []string{"lods_skipped_by_margin", "bounds_decisive"} {
		if _, ok := margin.Stats[key]; !ok {
			t.Errorf("stats missing %q: %v", key, margin.Stats)
		}
	}
	if static.Stats["lods_skipped_by_margin"].(float64) != 0 {
		t.Errorf("static run reported margin skips: %v", static.Stats)
	}
}

// TestStatuszNamesCalibrationPair: the margin calibrator is keyed by
// dataset pair, and /statusz says which pair each cell belongs to. The
// reversed pair beta × alpha is one no other test queries, so its cells
// are this join's.
func TestStatuszNamesCalibrationPair(t *testing.T) {
	ts := testServer(t)
	if resp := postJSON(t, ts.URL+"/query/within", `{"target":"beta","source":"alpha","dist":25}`, nil); resp.StatusCode != 200 {
		t.Fatalf("within status %d", resp.StatusCode)
	}
	var status struct {
		Sched []core.CalibrationEntry `json:"sched"`
	}
	if resp := getJSON(t, ts.URL+"/statusz", &status); resp.StatusCode != 200 {
		t.Fatalf("statusz status %d", resp.StatusCode)
	}
	cells := 0
	for i, ce := range status.Sched {
		if i > 0 {
			a, b := status.Sched[i-1], ce
			if cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Target, b.Target),
				cmp.Compare(a.Source, b.Source), cmp.Compare(a.LOD, b.LOD)) >= 0 {
				t.Errorf("sched entries out of (kind, target, source, lod) order: %+v before %+v", a, b)
			}
		}
		if ce.Kind == "within" && ce.Target == "beta" && ce.Source == "alpha" {
			cells++
			if ce.Count != 1 {
				t.Errorf("cell %+v: count %d after one join, want 1", ce, ce.Count)
			}
		}
	}
	if cells == 0 {
		t.Errorf("/statusz sched has no within beta × alpha cell: %+v", status.Sched)
	}
}

// TestNNHugeK: k is request input that nothing caps, so no memory may be
// sized by it. A k far beyond the source's size answers every pair.
func TestNNHugeK(t *testing.T) {
	ts := testServer(t)
	var nn struct {
		Neighbors []core.Neighbor `json:"neighbors"`
	}
	if resp := postJSON(t, ts.URL+"/query/nn", `{"target":"alpha","source":"beta","k":100000000000}`, &nn); resp.StatusCode != 200 {
		t.Fatalf("nn status %d", resp.StatusCode)
	}
	if len(nn.Neighbors) != 8*8 {
		t.Fatalf("neighbors = %d, want every alpha × beta pair (64)", len(nn.Neighbors))
	}
}

func TestQueryErrors(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		url, body string
		status    int
	}{
		{"/query/nn", `{"target":"nope","source":"beta"}`, 404},
		{"/query/nn", `{"target":"alpha","source":"nope"}`, 404},
		{"/query/nn", `not json`, 400},
		{"/query/nn", `{"target":"alpha","source":"beta","paradigm":"magic"}`, 400},
		{"/query/nn", `{"target":"alpha","source":"beta","accel":"quantum"}`, 400},
		{"/query/nn", `{"target":"alpha","source":"beta","sched":"psychic"}`, 400},
		{"/query/within", `{"target":"alpha","source":"beta"}`, 400}, // no dist
		{"/query/range", `{"dataset":"alpha","min":[5,5,5],"max":[1,1,1]}`, 400},
		{"/query/range", `{"dataset":"nope","min":[0,0,0],"max":[1,1,1]}`, 404},
		{"/query/point", `{"dataset":"nope","point":[0,0,0]}`, 404},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+c.url, c.body, nil)
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d", c.url, c.body, resp.StatusCode, c.status)
		}
	}
}
