package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
)

// A workload is one closed-loop scenario. The runner calls generate
// (untimed), setUp (timed, repeated for a median), prepare (untimed: oracle
// and sizing), then warm-up and the measured phases, then tearDown.
type workload interface {
	name() string
	// generate derives every input from the seed and returns their digest.
	generate(seed int64) string
	// setUp installs the system under test with its files under scratch.
	// It reports the bytes stored and the raw bytes they encode.
	setUp(scratch string) (stored, raw int64, err error)
	tearDown()
	// prepare answers every distinct op through the reference path and
	// records the expected checksums.
	prepare() error
	clients() int
	// passLen is the length of one client's op sequence; a client repeats
	// it, and stops only between passes so every pass counted is complete.
	passLen() int
	classes() []string
	// do runs op i of the client's sequence, checks its answer, and, when
	// tr is not nil, records the spans below the op span.
	do(client, i int, tr *tracer, opSpan int) outcome
	// layerCounters reads the counters the system keeps itself (cache,
	// coordinator, wire bytes); the runner takes deltas around a phase.
	layerCounters() counters
	// probe times direct calls into each layer on the workload's own data.
	probe(seed int64, scratch string, m map[string]float64) error
}

// outcome is what one op reports back to the runner.
type outcome struct {
	class int
	err   error       // transport or engine error, or an answer that differs from the oracle
	stats *core.Stats // nil when the op returns none (object fetch)
	// server-tier ops only
	respBytes int64
	rejected  bool // 503 from admission control
	// ingest ops only
	stored, raw int64
}

// counters are cumulative counts the system under test keeps.
type counters struct {
	evictions, residentBytes                   int64
	retries, hedges, failovers, breakerOpens   int64
	wireReqBytes, wireRespBytes, decodeFailure int64
}

// sums accumulates the per-op layer accounting of a phase.
type sums struct {
	ops, statOps, failed int64

	elapsed, filter, decode, geom time.Duration
	candidates, results           int64
	decodes, hits, warm           int64
	applied, skipped              int64
	batches, batchPairs           int64
	lodsSkipped, boundsDecisive   int64
	prunedBelowTop                int64

	legs, attempts int64
	legElapsed     []time.Duration
	stragglerSum   float64
	stragglerOps   int64
	coordSelf      time.Duration

	serverOps      int64 // ops answered over HTTP
	serverStatOps  int64 // those whose body carried engine stats
	serverOverhead time.Duration
	respBytes      int64
	rejected       int64

	stored, raw int64

	latencies [][]time.Duration // per class
}

func (s *sums) add(o outcome, lat time.Duration) {
	s.ops++
	s.latencies[o.class] = append(s.latencies[o.class], lat)
	if o.err != nil {
		s.failed++
	}
	if o.rejected {
		s.rejected++
	}
	s.stored += o.stored
	s.raw += o.raw
	if o.respBytes > 0 {
		s.serverOps++
		s.respBytes += o.respBytes
	}
	st := o.stats
	if st == nil {
		return
	}
	s.statOps++
	s.elapsed += st.Elapsed
	s.filter += st.FilterTime
	s.decode += st.DecodeTime
	s.geom += st.GeomTime
	s.candidates += st.Candidates
	s.results += st.Results
	s.decodes += st.Decodes
	s.hits += st.CacheHits
	s.warm += st.WarmStarts
	s.applied += st.RoundsApplied
	s.skipped += st.RoundsSkipped
	s.batches += st.BatchesDispatched
	s.batchPairs += st.BatchPairs
	s.lodsSkipped += st.LODsSkippedByMargin
	s.boundsDecisive += st.BoundsDecisive
	for l := 0; l < len(st.PairsPruned)-1; l++ {
		s.prunedBelowTop += st.PairsPruned[l]
	}
	if o.respBytes > 0 {
		s.serverStatOps++
		s.serverOverhead += lat - st.Elapsed
	}
	var slowest time.Duration
	var legs []time.Duration
	for _, leg := range st.Shards {
		if leg.Status == "skipped" {
			continue
		}
		legs = append(legs, leg.Elapsed)
		s.attempts += int64(leg.Attempts)
		slowest = max(slowest, leg.Elapsed)
	}
	if len(legs) > 0 {
		s.legs += int64(len(legs))
		s.legElapsed = append(s.legElapsed, legs...)
		s.coordSelf += st.Elapsed - slowest
	}
	if med := medianDuration(legs); len(legs) > 1 && med > 0 {
		s.stragglerSum += float64(slowest) / float64(med)
		s.stragglerOps++
	}
}

func (s *sums) allLatencies() []time.Duration {
	var all []time.Duration
	for _, l := range s.latencies {
		all = append(all, l...)
	}
	return all
}

// phase is the result of one closed-loop run.
type phase struct {
	sums
	opsPerS  float64       // Σ over clients of ops ÷ the client's own run time
	cpu      time.Duration // process CPU over the phase
	counters counters      // delta over the phase
	spans    []span
	firstErr error
}

// runPhase drives the workload closed-loop for at least d: each client sends
// its next op when the previous one returns, and stops at the first pass
// boundary after d at which the clients have minOps ops between them, so
// that a box slowed by its neighbours lengthens the run instead of thinning
// the tail. With traced set, ops run with engine tracing on and spans are
// kept.
func runPhase(w workload, d time.Duration, minOps int, traced bool) *phase {
	n := w.clients()
	minOps = (minOps + n - 1) / n // per client
	p := &phase{}
	p.latencies = make([][]time.Duration, len(w.classes()))
	tracers := make([]*tracer, n)
	rates := make([]float64, n)
	before, cpu0, origin := w.layerCounters(), cpuTime(), time.Now()

	var mu sync.Mutex // guards p; taken once per op, which is far rarer than contention
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			if traced {
				tr = &tracer{origin: origin}
			}
			ops := 0
			for time.Since(origin) < d || ops < minOps {
				for i := 0; i < w.passLen(); i++ {
					t0 := time.Now()
					opSpan := tr.add("op", -1, t0, 0)
					o := w.do(c, i, tr, opSpan)
					lat := time.Since(t0)
					if tr != nil {
						tr.spans[opSpan].End = tr.spans[opSpan].Start + lat.Nanoseconds()
						tr.op++
					}
					mu.Lock()
					p.add(o, lat)
					if o.err != nil && p.firstErr == nil {
						p.firstErr = fmt.Errorf("client %d op %d (%s): %w", c, i, w.classes()[o.class], o.err)
					}
					mu.Unlock()
					ops++
				}
			}
			rates[c] = float64(ops) / time.Since(origin).Seconds()
			tracers[c] = tr
		}(c)
	}
	wg.Wait()

	p.cpu = cpuTime() - cpu0
	p.counters = w.layerCounters().sub(before)
	for _, r := range rates {
		p.opsPerS += r
	}
	if traced {
		p.spans = mergeTraces(tracers)
	}
	return p
}

// faults counts what a fault-free run must not see.
func (c counters) faults() int64 { return c.retries + c.hedges + c.failovers + c.breakerOpens }

func (c counters) sub(o counters) counters {
	return counters{
		evictions:     c.evictions - o.evictions,
		residentBytes: c.residentBytes, // a level, not a count
		retries:       c.retries - o.retries,
		hedges:        c.hedges - o.hedges,
		failovers:     c.failovers - o.failovers,
		breakerOpens:  c.breakerOpens - o.breakerOpens,
		wireReqBytes:  c.wireReqBytes - o.wireReqBytes,
		wireRespBytes: c.wireRespBytes - o.wireRespBytes,
		decodeFailure: c.decodeFailure - o.decodeFailure,
	}
}

// config sizes one benchmark run.
type config struct {
	seed    int64
	measure time.Duration // length of the measured (or traced) run
	warmup  time.Duration
	setups  int // timed set-ups at least; setup_s is their median
	trace   bool
	outDir  string // traces and scratch files
	golden  map[string]string
}

// result is the one JSON object a run prints; the driver reads these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// A set-up shorter than a third of setupBudget is repeated beyond
// config.setups, maxSetups times at most.
const (
	setupBudget = 3 * time.Second
	maxSetups   = 9
)

// minSamples is the fewest latency samples a measured run yields, running
// on past its time if it must: p95 then has at least ten samples beyond it.
const minSamples = 200

// runWorkload runs one workload start to finish and returns its result.
// Progress and sizes go to stderr. A result with Correct false still carries
// its metrics; err is set only when no result could be produced.
func runWorkload(w workload, cfg config) (*result, error) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "[%s] "+format+"\n", append([]any{w.name()}, args...)...)
	}
	digest := w.generate(cfg.seed)
	key := fmt.Sprintf("%s/%d", w.name(), cfg.seed)
	if want, pinned := cfg.golden[key]; pinned && want != digest {
		return nil, fmt.Errorf("inputs of %s changed: digest %s, golden.json has %s (datagen or an op generator changed; "+
			"if intended, run with -update-golden and re-measure the baseline)", key, digest, want)
	}
	logf("seed %d inputs %s", cfg.seed, digest)

	scratch, err := os.MkdirTemp(cfg.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// setup_s is an end-to-end metric: the traced run sets up once. The
	// measured run sets up cfg.setups times, and a short set-up again until
	// maxSetups or until they have taken setupBudget together, so that its
	// median is as steady as a long one's.
	var setupTimes []float64
	var stored, raw int64
	for spent := 0.0; ; {
		t0 := time.Now()
		stored, raw, err = w.setUp(scratch)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		spent += setupTimes[len(setupTimes)-1]
		n := len(setupTimes)
		if cfg.trace || n >= maxSetups || (n >= cfg.setups && spent >= setupBudget.Seconds()) {
			break
		}
		w.tearDown()
	}
	defer w.tearDown()
	logf("set-up times %.3f s", setupTimes)

	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if p := runPhase(w, cfg.warmup, 0, false); p.firstErr != nil {
		return nil, fmt.Errorf("warm-up: %w", p.firstErr)
	}

	if !cfg.trace {
		rss := startRSSSampler()
		p := runPhase(w, cfg.measure, minSamples, false)
		return endToEnd(p, w.classes(), medianFloat(setupTimes), rss.stop(), stored, raw, logf), nil
	}

	// The traced run is preceded by a short untraced one on the same op
	// sequence; the ratio of their throughputs is the tracing overhead.
	plain := runPhase(w, cfg.measure/4, 0, false)
	traced := runPhase(w, cfg.measure-cfg.measure/4, 0, true)
	if err := writeTrace(cfg.outDir, w.name(), traced.spans); err != nil {
		return nil, err
	}
	m := perLayer(w, traced)
	m["trace.overhead_ratio"] = traced.opsPerS / plain.opsPerS
	if err := w.probe(cfg.seed, scratch, m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	failed := plain.failed + traced.failed
	faults := traced.counters.faults()
	if err := errors.Join(plain.firstErr, traced.firstErr); err != nil {
		logf("FAILED op: %v", err)
	}
	if faults > 0 {
		logf("FAILED: %d retries/hedges/failovers/breaker opens in a fault-free run", faults)
	}
	return &result{
		Correct:   failed == 0 && faults == 0,
		Attempted: plain.ops + traced.ops,
		Failed:    failed,
		Metrics:   report(perLayerMetrics, m),
	}, nil
}

// endToEnd turns the measured run into the end-to-end metrics.
func endToEnd(p *phase, classes []string, setupS, rssMB float64, stored, raw int64, logf func(string, ...any)) *result {
	all := p.allLatencies()
	correct := p.failed == 0
	if p.firstErr != nil {
		logf("FAILED op: %v", p.firstErr)
	}
	if len(all) < minSamples {
		logf("FAILED: %d latency samples, need %d", len(all), minSamples)
		correct = false
	}
	if faults := p.counters.faults(); faults > 0 {
		logf("FAILED: %d retries/hedges/failovers/breaker opens in a fault-free run", faults)
		correct = false
	}
	p95, err := percentile(all, 0.95)
	if err != nil {
		logf("FAILED: %v", err)
		correct = false
	}
	if rssMB == 0 {
		logf("FAILED: no resident set size could be read from /proc/self/statm")
		correct = false
	}
	if p.raw > 0 { // ingest ops store as they go
		stored, raw = p.stored, p.raw
	}
	logf("%d ops in measured run, %d failed, %d latency samples", p.ops, p.failed, len(all))
	var total time.Duration
	for _, l := range all {
		total += l
	}
	for c, class := range classes {
		var sum time.Duration
		for _, l := range p.latencies[c] {
			sum += l
		}
		logf("  %-16s %6d ops  p50 %9.3f ms  %5.1f %% of op time", class, len(p.latencies[c]), ms(medianDuration(p.latencies[c])), 100*float64(sum)/float64(total))
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	logf("  go heap in use %d MB, heap sys %d MB, total sys %d MB, %d GCs", mem.HeapInuse>>20, mem.HeapSys>>20, mem.Sys>>20, mem.NumGC)
	m := map[string]float64{
		"setup_s":                   setupS,
		"ops_per_s":                 p.opsPerS,
		"lat_p50_ms":                ms(medianDuration(all)),
		"lat_p95_ms":                ms(p95),
		"cpu_ms_per_op":             perOp(ms(p.cpu), p.ops),
		"peak_rss_mb":               rssMB,
		"stored_bytes_per_raw_byte": float64(stored) / float64(raw),
	}
	return &result{Correct: correct, Attempted: p.ops, Failed: p.failed, Metrics: report(endToEndMetrics, m)}
}

// perLayer turns the traced run into the per-layer metrics that come from
// counts and spans; probes add the rest.
func perLayer(w workload, p *phase) map[string]float64 {
	m := map[string]float64{
		"ppvp.rounds_applied_per_op":      ratio(p.applied, p.ops),
		"ppvp.rounds_skipped_per_op":      ratio(p.skipped, p.ops),
		"ppvp.decode_failures":            float64(p.counters.decodeFailure),
		"cache.hit_ratio":                 ratio(p.hits, p.hits+p.decodes),
		"cache.decodes_per_op":            ratio(p.decodes, p.ops),
		"cache.warm_starts_per_op":        ratio(p.warm, p.ops),
		"cache.evictions_per_op":          ratio(p.counters.evictions, p.ops),
		"cache.resident_mb":               float64(p.counters.residentBytes) / (1 << 20),
		"rtree.filter_ms_per_op":          perOp(ms(p.filter), p.ops),
		"rtree.candidates_per_result":     ratio(p.candidates, p.results),
		"geom.time_ms_per_op":             perOp(ms(p.geom), p.ops),
		"gpusim.batches_per_op":           ratio(p.batches, p.ops),
		"gpusim.pairs_per_batch":          ratio(p.batchPairs, p.batches),
		"core.elapsed_ms_per_op":          perOp(ms(p.elapsed), p.statOps),
		"core.decode_ms_per_op":           perOp(ms(p.decode), p.ops),
		"core.candidates_per_op":          ratio(p.candidates, p.ops),
		"core.results_per_op":             ratio(p.results, p.ops),
		"core.pruned_below_top_ratio":     ratio(p.prunedBelowTop, p.candidates),
		"core.bounds_decisive_per_op":     ratio(p.boundsDecisive, p.ops),
		"core.lods_skipped_margin_per_op": ratio(p.lodsSkipped, p.ops),
		"shard.legs_per_op":               ratio(p.legs, p.ops),
		"shard.leg_p50_ms":                ms(medianDuration(p.legElapsed)),
		"shard.straggler_ratio":           perOp(p.stragglerSum, p.stragglerOps),
		"shard.coord_self_ms_per_op":      perOp(ms(p.coordSelf), p.ops),
		"shard.attempts_per_leg":          ratio(p.attempts, p.legs),
		"shard.retries":                   float64(p.counters.retries),
		"shard.hedges":                    float64(p.counters.hedges),
		"shard.failovers":                 float64(p.counters.failovers),
		"shard.breaker_opens":             float64(p.counters.breakerOpens),
		"shard.wire_req_bytes_per_op":     ratio(p.counters.wireReqBytes, p.ops),
		"shard.wire_resp_bytes_per_op":    ratio(p.counters.wireRespBytes, p.ops),
		"server.overhead_ms_per_op":       perOp(ms(p.serverOverhead), p.serverStatOps),
		"server.resp_bytes_per_op":        ratio(p.respBytes, p.serverOps),
		"server.rejected_503":             float64(p.rejected),
	}
	for c, class := range w.classes() {
		if slices.Contains(joinCells, class) {
			m["core.cell."+class+".p50_ms"] = ms(medianDuration(p.latencies[c]))
		}
	}
	shares, opSelf := selfShares(p.spans)
	for layer, share := range shares {
		m["trace.self_share."+layer] = share
	}
	m["core.harness_self_ms_per_op"] = perOp(ms(opSelf), p.ops)
	return m
}
