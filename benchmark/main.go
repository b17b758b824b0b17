// Command benchmark is the repository's end-to-end benchmark: four
// closed-loop workloads over the public functions of core, server, shard,
// storage, ppvp, cache, the indexes, geom and gpusim, every answer checked
// against a reference path. See README.md.
//
//	bash benchmark/run.sh --workload join-warm --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --seed 1        # all workloads, measured and traced
//	bash benchmark/run.sh --aa 10         # run-to-run spread against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workloads lists the benchmark's workloads by their fixed names.
func workloads() []workload {
	return []workload{&joins{}, &joins{cold: true}, &serveShard{}, &ingestReload{}}
}

const (
	manifestPath = "BENCHMARK.json"        // relative to the repository root
	goldenPath   = "benchmark/golden.json" // input digests of the pinned seeds
	outDir       = "benchmark/out"         // traces and scratch files
	warmupTime   = 3 * time.Second
	timedSetups  = 3
)

func main() {
	var (
		name         = flag.String("workload", "", "run this one workload and print its result as the last line")
		seed         = flag.Int64("seed", 1, "workload seed; every input is a function of it")
		seconds      = flag.Int("seconds", 0, "length of the measured run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: measured run, end-to-end metrics; 1: traced run and probes, per-layer metrics")
		aa           = flag.Int("aa", 0, "run every workload (or the one named) this many times, each on another seed, and compare the spread of each end-to-end metric with its bound")
		updateGolden = flag.Bool("update-golden", false, "rewrite golden.json with the input digests of seeds 1 and 2")
	)
	flag.Parse()
	// nproc is 2 on the reference box; more cores than 4 would change what
	// the closed loop with nproc clients measures.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if err := run(*name, *seed, *seconds, *trace == 1, *aa, *updateGolden); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, trace bool, aa int, updateGolden bool) error {
	man, err := readManifest(manifestPath)
	if err != nil {
		return fmt.Errorf("%w (run from the repository root)", err)
	}
	if seconds <= 0 {
		seconds = man.RunSeconds
	}
	switch {
	case updateGolden:
		return writeGolden()
	case aa > 0:
		return runAA(man, name, aa, seed, seconds)
	case name == "":
		return runSuite(seed, seconds)
	}
	for _, w := range workloads() {
		if w.name() != name {
			continue
		}
		golden, err := readGolden()
		if err != nil {
			return err
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		res, err := runWorkload(w, config{
			seed: seed, measure: time.Duration(seconds) * time.Second, warmup: warmupTime,
			setups: timedSetups, trace: trace, outDir: outDir, golden: golden,
		})
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d ops failed or a run invariant did not hold", name, res.Failed, res.Attempted)
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", name)
}

// manifest is what the benchmark reads of BENCHMARK.json.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &man, nil
}

// readGolden loads the pinned input digests, keyed "workload/seed".
func readGolden() (map[string]string, error) {
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	golden := map[string]string{}
	if err := json.Unmarshal(blob, &golden); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return golden, nil
}

// writeGolden pins the inputs of seed 1 (development) and seed 2 (held out
// for claims).
func writeGolden() error {
	golden := map[string]string{}
	for _, seed := range []int64{1, 2} {
		for _, w := range workloads() {
			golden[fmt.Sprintf("%s/%d", w.name(), seed)] = w.generate(seed)
		}
	}
	blob, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(blob, '\n'), 0o644)
}
