package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json carries the same
// lists (plus direction and bound); TestMetricNamesMatchManifest keeps the
// two in step.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"stored_bytes_per_raw_byte", "ratio"},
}

// joinCells are the twelve rota entries of join-warm and join-cold, in rota
// order; their per-cell medians are per-layer metrics.
var joinCells = []string{
	"INT-NN.aabb", "WN-NN.aabb", "WN-NV.aabb", "INT-NN.perpair", "NN-NN.aabb", "NN-NV.aabb",
	"INT-NN.brute", "WN-NN.brute", "WN-NV.brute",
	"INT-NN.partgpu", "WN-NN.partgpu", "INT-NN.gpu",
}

// traceLayers are the span names whose self-time shares are reported.
var traceLayers = []string{
	"op", "http.client", "shard.coord", "shard.leg", "core.query",
	"core.filter", "core.decode", "core.geom", "core.build", "storage.save", "core.load",
}

var perLayerMetrics = buildPerLayerMetrics()

func buildPerLayerMetrics() []metricDef {
	defs := []metricDef{
		{"ppvp.encode_ms_per_object", "ms"},
		{"ppvp.decode_us_per_round", "us"},
		{"ppvp.decode_top_lod_us", "us"},
		{"ppvp.rounds_applied_per_op", "count"},
		{"ppvp.rounds_skipped_per_op", "count"},
		{"ppvp.decode_failures", "count"},
		{"cache.hit_ratio", "ratio"},
		{"cache.decodes_per_op", "count"},
		{"cache.warm_starts_per_op", "count"},
		{"cache.evictions_per_op", "count"},
		{"cache.resident_mb", "MB"},
		{"cache.hit_ns", "ns"},
		{"storage.save_mb_per_s", "MB/s"},
		{"storage.load_mb_per_s", "MB/s"},
		{"storage.disk_bytes_per_object", "B"},
		{"rtree.filter_ms_per_op", "ms"},
		{"rtree.candidates_per_result", "ratio"},
		{"rtree.bulkload_us_per_entry", "us"},
		{"rtree.search_us", "us"},
		{"aabbtree.build_us_per_kface", "us"},
		{"aabbtree.intersect_us_per_pair", "us"},
		{"aabbtree.dist_us_per_pair", "us"},
		{"geom.time_ms_per_op", "ms"},
		{"geom.intersect_ns_per_facepair", "ns"},
		{"geom.mindist_ns_per_facepair", "ns"},
		{"gpusim.batches_per_op", "count"},
		{"gpusim.pairs_per_batch", "count"},
		{"gpusim.evalbatch_us", "us"},
		{"partition.ms_per_object", "ms"},
		{"core.elapsed_ms_per_op", "ms"},
		{"core.decode_ms_per_op", "ms"},
		{"core.candidates_per_op", "count"},
		{"core.results_per_op", "count"},
		{"core.pruned_below_top_ratio", "ratio"},
		{"core.bounds_decisive_per_op", "count"},
		{"core.lods_skipped_margin_per_op", "count"},
		{"core.harness_self_ms_per_op", "ms"},
	}
	for _, c := range joinCells {
		defs = append(defs, metricDef{"core.cell." + c + ".p50_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"shard.legs_per_op", "count"},
		metricDef{"shard.leg_p50_ms", "ms"},
		metricDef{"shard.straggler_ratio", "ratio"},
		metricDef{"shard.coord_self_ms_per_op", "ms"},
		metricDef{"shard.attempts_per_leg", "ratio"},
		metricDef{"shard.retries", "count"},
		metricDef{"shard.hedges", "count"},
		metricDef{"shard.failovers", "count"},
		metricDef{"shard.breaker_opens", "count"},
		metricDef{"shard.wire_req_bytes_per_op", "B"},
		metricDef{"shard.wire_resp_bytes_per_op", "B"},
		metricDef{"server.overhead_ms_per_op", "ms"},
		metricDef{"server.resp_bytes_per_op", "B"},
		metricDef{"server.rejected_503", "count"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"trace.self_share." + l, "ratio"})
	}
	return defs
}

// metricValue is one reported number; the driver reads exactly these keys.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills every metric of defs from values; a metric the workload does
// not exercise reads 0, which is itself the prediction "none on this
// workload".
func report(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// percentile returns the p-quantile (0 < p < 1) of the samples by the
// nearest-rank rule. It refuses a quantile with fewer than ten samples
// beyond it: such a tail is one slow op, not a distribution.
func percentile(samples []time.Duration, p float64) (time.Duration, error) {
	n := len(samples)
	rank := int(math.Ceil(p*float64(n))) - 1
	if beyond := n - 1 - rank; n == 0 || beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples leaves fewer than 10 beyond it", p*100, n)
	}
	return sortedDurations(samples)[max(rank, 0)], nil
}

// medianDuration is the middle sample (the mean of the middle two of an even
// count), without the tail rule: per-layer medians of small classes are
// still worth printing.
func medianDuration(samples []time.Duration) time.Duration {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := sortedDurations(samples)
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}

func sortedDurations(samples []time.Duration) []time.Duration {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return sorted
}

func medianFloat(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perOp is total ÷ ops, 0 when there were none.
func perOp(total float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

func ratio(a, b int64) float64 { return perOp(float64(a), b) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler watches the process's resident set size during the measured
// run. peak_rss_mb is the median, over the one-second windows of the run, of
// the highest size seen in the window. The process-lifetime high-water mark
// (VmHWM) is one extreme sample of a quantity the collector's pacing moves by
// several MB; on the small ingest-reload process it spread by 15 % from run
// to run, where the median of window peaks repeats within a few percent.
type rssSampler struct {
	quit    chan struct{}
	windows chan []float64
}

const (
	rssSampleEvery = 20 * time.Millisecond
	rssWindow      = time.Second
)

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), windows: make(chan []float64, 1)}
	go func() {
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		var peaks []float64
		windowEnd, peak := time.Now().Add(rssWindow), residentMB()
		for {
			select {
			case <-s.quit:
				if peak > 0 { // the last, partial window, if it was sampled at all
					peaks = append(peaks, peak)
				}
				s.windows <- peaks
				return
			case now := <-tick.C:
				peak = max(peak, residentMB())
				if now.After(windowEnd) {
					peaks, peak, windowEnd = append(peaks, peak), 0, now.Add(rssWindow)
				}
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the median window peak in MB, or 0 if
// the size could not be read.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	return medianFloat(<-s.windows)
}

// residentMB reads the current resident set size, 0 if it cannot.
func residentMB() float64 {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(blob))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
