package main

import (
	"os"
	"regexp"
	"testing"
	"time"
)

// The benchmark addresses BENCHMARK.json and golden.json from the repository
// root, where the driver runs it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := make([]time.Duration, 200)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	p95, err := percentile(samples, 0.95)
	if err != nil || p95 != 190*time.Millisecond {
		t.Fatalf("p95 of 1..200 ms = %v, %v; want 190ms", p95, err)
	}
	if _, err := percentile(samples[:199], 0.95); err == nil {
		t.Fatal("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
	if got := medianDuration(samples[:4]); got != 2500*time.Microsecond {
		t.Fatalf("median of 1..4 ms = %v, want 2.5ms", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "shard.leg.0", Start: 10, End: 60, Parent: 0},
		{Name: "shard.leg.1", Start: 40, End: 90, Parent: 0}, // overlaps leg 0 on [40,60]
		{Name: "late", Start: 95, End: 120, Parent: 0},       // sticks out of its parent
		{Name: "core.query", Start: 10, End: 50, Parent: 1},
		// two phases of the query whose windows overlap on [20,30]; together
		// they cover [10,40], shared 1:2 by busy time
		{Name: "core.decode", Start: 10, End: 30, Parent: 4, Busy: 10},
		{Name: "core.geom", Start: 20, End: 40, Parent: 4, Busy: 20},
	}
	want := []int64{
		100 - (80 + 5), // op: legs cover [10,90], "late" is clipped to [95,100]
		50 - 40,        // leg 0 minus its query
		50,             // leg 1 has no children
		25,
		40 - 30, // the query minus the union of its phase windows
		10,      // 30 covered × 10/30
		20,      // 30 covered × 20/30
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	shares, opSelf := selfShares(spans)
	if opSelf != 15 {
		t.Errorf("op self time = %d, want 15", opSelf)
	}
	if got, want := shares["shard.leg"], 60.0/140; got != want {
		t.Errorf("shard.leg share = %v, want %v (both legs in one layer)", got, want)
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	golden, err := readGolden()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads() {
		first := w.generate(1)
		if again := workloads()[i].generate(1); again != first {
			t.Errorf("%s: seed 1 gave inputs %s, then %s", w.name(), first, again)
		}
		if want := golden[w.name()+"/1"]; first != want {
			t.Errorf("%s: seed 1 inputs %s, golden.json has %s", w.name(), first, want)
		}
		second := w.generate(2)
		if second == first {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name())
		}
		if want := golden[w.name()+"/2"]; second != want {
			t.Errorf("%s: seed 2 inputs %s, golden.json has %s", w.name(), second, want)
		}
	}
}

func TestMetricNamesMatchManifest(t *testing.T) {
	man, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(kind string, defs []metricDef, listed map[string]string) {
		t.Helper()
		for _, d := range defs {
			if !valid.MatchString(d.name) {
				t.Errorf("%s metric name %q is not a valid name", kind, d.name)
			}
			unit, ok := listed[d.name]
			if !ok {
				t.Errorf("%s metric %s is emitted but not in BENCHMARK.json", kind, d.name)
			} else if unit != d.unit {
				t.Errorf("%s metric %s: unit %q emitted, %q in BENCHMARK.json", kind, d.name, d.unit, unit)
			}
			delete(listed, d.name)
		}
		for name := range listed {
			t.Errorf("%s metric %s is in BENCHMARK.json but never emitted", kind, name)
		}
	}
	e2e := map[string]string{}
	for _, e := range man.EndToEnd {
		e2e[e.Name] = e.Unit
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("bound of %s is %v, want (0, 0.25]", e.Name, e.Bound)
		}
	}
	layers := map[string]string{}
	for _, l := range man.PerLayer {
		layers[l.Name] = l.Unit
	}
	same("end-to-end", endToEndMetrics, e2e)
	same("per-layer", perLayerMetrics, layers)

	ws := workloads()
	if len(man.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(man.Workloads), len(ws))
	}
	for i, w := range ws {
		if man.Workloads[i].Name != w.name() {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the benchmark", i, man.Workloads[i].Name, w.name())
		}
	}
}

// TestMiniatureWorkloads runs a two-second traced miniature of every
// workload: every op must pass the oracle, every per-layer metric must be
// reported, and the counts that do not depend on timing must come out the
// same on join-warm and join-cold, which run the same rota on the same data.
func TestMiniatureWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four systems and runs each for two seconds")
	}
	counts := map[string][2]float64{}
	for _, w := range workloads() {
		res, err := runWorkload(w, config{
			seed: 1, measure: 2 * time.Second, warmup: 300 * time.Millisecond,
			setups: 1, trace: true, outDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
			t.Errorf("%s: correct %v, %d of %d ops failed", w.name(), res.Correct, res.Failed, res.Attempted)
		}
		for _, d := range perLayerMetrics {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", w.name(), d.name)
			}
		}
		counts[w.name()] = [2]float64{res.Metrics["core.candidates_per_op"].Value, res.Metrics["core.results_per_op"].Value}
	}
	if counts["join-warm"] != counts["join-cold"] || counts["join-warm"][0] == 0 {
		t.Errorf("candidates and results per op: join-warm %v, join-cold %v; want equal and non-zero",
			counts["join-warm"], counts["join-cold"])
	}
}
