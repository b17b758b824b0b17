package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
)

// runChild re-executes this binary for one workload run, so that peak RSS
// and CPU time belong to that workload alone, and parses the result line.
func runChild(name string, seed int64, seconds int, trace bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", traceArg)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result (%v): %w", name, seed, runErr, err)
	}
	return &res, nil // a run that printed a result but failed its checks carries Correct false
}

// environment is recorded with every suite output.
func environment() map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	}
}

// check is one thing the traced runs must confirm about the workloads.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runSuite runs every workload measured and traced, and prints one JSON
// document with every metric by name and unit. It claims nothing.
func runSuite(seed int64, seconds int) error {
	type entry struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		EndToEnd  map[string]metricValue `json:"end_to_end"`
		PerLayer  map[string]metricValue `json:"per_layer"`
	}
	doc := struct {
		Claim       any              `json:"claim"`
		Seed        int64            `json:"seed"`
		RunSeconds  int              `json:"run_seconds"`
		Environment map[string]any   `json:"environment"`
		Workloads   map[string]entry `json:"workloads"`
		Checks      []check          `json:"checks"`
	}{Seed: seed, RunSeconds: seconds, Environment: environment(), Workloads: map[string]entry{}}

	ok := true
	layer := func(wl, metric string) float64 { return doc.Workloads[wl].PerLayer[metric].Value }
	for _, w := range workloads() {
		measured, err := runChild(w.name(), seed, seconds, false)
		if err != nil {
			return err
		}
		traced, err := runChild(w.name(), seed, seconds, true)
		if err != nil {
			return err
		}
		doc.Workloads[w.name()] = entry{
			Correct:   measured.Correct && traced.Correct,
			Attempted: measured.Attempted + traced.Attempted, Failed: measured.Failed + traced.Failed,
			EndToEnd: measured.Metrics, PerLayer: traced.Metrics,
		}
		ok = ok && measured.Correct && traced.Correct
	}

	// What the traced runs must confirm: each workload stresses what
	// README.md says it does.
	expect := func(name string, cond bool, format string, args ...any) {
		doc.Checks = append(doc.Checks, check{name, cond, fmt.Sprintf(format, args...)})
		ok = ok && cond
	}
	warmHit, coldHit := layer("join-warm", "cache.hit_ratio"), layer("join-cold", "cache.hit_ratio")
	expect("join-warm hits its cache", warmHit >= 0.95, "cache.hit_ratio %.3f, want >= 0.95", warmHit)
	expect("join-cold defeats its cache", coldHit < 0.5, "cache.hit_ratio %.3f, want < 0.5", coldHit)
	warmDec, coldDec := layer("join-warm", "trace.self_share.core.decode"), layer("join-cold", "trace.self_share.core.decode")
	expect("join-cold adds decode", coldDec >= 3*warmDec, "decode self-time share %.3f cold, %.3f warm, want >= 3x", coldDec, warmDec)
	geomShare := layer("serve-shard", "trace.self_share.core.geom")
	expect("serve-shard is not geometry-bound", geomShare <= 0.5, "core.geom self-time share %.3f, want <= 0.5", geomShare)
	ingestGeom := layer("ingest-reload", "trace.self_share.core.geom") + layer("ingest-reload", "gpusim.batches_per_op")
	expect("ingest-reload runs no refine kernels", ingestGeom == 0, "core.geom share + gpusim batches %.3g, want 0", ingestGeom)
	for _, w := range workloads() {
		r := layer(w.name(), "trace.overhead_ratio")
		expect(w.name()+" tracing is cheap", r >= 0.85, "trace.overhead_ratio %.3f, want >= 0.85", r)
	}

	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if !ok {
		return errors.New("a workload failed or a check did not hold")
	}
	return nil
}

// runAA measures the benchmark against itself: n runs of each workload on
// one binary, each on another seed, as the driver does. For every end-to-end
// metric it prints min/median/max and the spread — the distance between the
// first and third quartile as a share of the median — next to the bound.
func runAA(man *manifest, only string, n int, seed int64, seconds int) error {
	fits := true
	for _, w := range workloads() {
		if only != "" && w.name() != only {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runChild(w.name(), seed+int64(i), seconds, false)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", w.name(), seed+int64(i), res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, e := range man.EndToEnd {
			v := values[e.Name]
			slices.Sort(v)
			spread := 0.0
			if n >= 2 {
				q1, q3 := quartiles(v)
				spread = (q3 - q1) / medianFloat(v)
			}
			verdict := "fits"
			if spread > e.Bound/3 {
				verdict = "above a third of the bound"
			}
			if spread > e.Bound && e.Name != "setup_s" {
				verdict, fits = "EXCEEDS the bound", false
			}
			fmt.Printf("%-14s %-26s min %-12.6g median %-12.6g max %-12.6g spread %.4f bound %.3f  %s\n",
				w.name(), e.Name, v[0], medianFloat(v), v[len(v)-1], spread, e.Bound, verdict)
		}
	}
	if !fits {
		return errors.New("a metric's spread exceeds its bound; see the table above")
	}
	return nil
}

// quartiles returns the first and third quartile of sorted values as
// Python's statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(sorted)+1)
		lo := int(pos)
		lo = min(max(lo, 1), len(sorted)-1)
		frac := pos - float64(lo)
		return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
	}
	return at(0.25), at(0.75)
}
