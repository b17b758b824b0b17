// Package obs is the engine's observability layer: a dependency-free
// Prometheus-text-format metrics registry, a span-style per-query trace
// recorder, and a ring buffer of recent query summaries.
//
// The package is intentionally stdlib-only — the repository bakes in no
// third-party modules — and implements the subset of the Prometheus
// exposition format (text format version 0.0.4) the server needs: counters,
// gauges, and histograms, optionally with a fixed label set per family.
// Callback-backed families (CounterFunc / GaugeFunc) sample external
// cumulative counters (the decode cache, the quarantine breaker) at scrape
// time, so those subsystems need no push-side instrumentation at all.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one registered family: everything needed to expose it.
type metric struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"
	// write appends the family's sample lines (without HELP/TYPE).
	write func(w io.Writer)
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Families appear in registration order; series within a
// family are sorted by label values. All registration methods panic on an
// invalid or duplicate name — metric registration is programmer-controlled
// startup code, not input handling.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	names   map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

func (r *Registry) register(m *metric) {
	mustValidName(m.name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[m.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.names[m.name] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a cumulative counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, typ: "counter", write: func(w io.Writer) {
		writeSample(w, name, "", c.Value())
	}})
	return c
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := newCounterVec(name, labels)
	r.register(&metric{name: name, help: help, typ: "counter", write: v.write})
	return v
}

// CounterFunc registers a counter whose value is sampled from fn at scrape
// time — for cumulative counters owned by another subsystem.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, typ: "counter", write: func(w io.Writer) {
		writeSample(w, name, "", fn())
	}})
}

// GaugeFunc registers a gauge whose value is sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, typ: "gauge", write: func(w io.Writer) {
		writeSample(w, name, "", fn())
	}})
}

// Histogram registers a histogram with the given upper bucket bounds
// (ascending; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(&metric{name: name, help: help, typ: "histogram", write: func(w io.Writer) {
		h.write(w, name, "")
	}})
	return h
}

// HistogramVec registers a histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{name: name, labels: labels, buckets: buckets, children: make(map[string]*labeledHistogram)}
	r.register(&metric{name: name, help: help, typ: "histogram", write: v.write})
	return v
}

// WritePrometheus renders every registered family in the text exposition
// format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
		m.write(w)
	}
}

// Handler returns an http.Handler serving the registry (the /metrics
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, b.String())
	})
}

// Counter is a cumulative float64 counter (atomic, lock-free).
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v (v must be ≥ 0 for Prometheus counter
// semantics; this is not enforced).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		val := math.Float64frombits(old) + v
		if c.bits.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current value.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// CounterVec is a counter family over a fixed set of label names.
type CounterVec struct {
	name   string
	labels []string

	mu       sync.Mutex
	children map[string]*labeledCounter
}

type labeledCounter struct {
	labels string // rendered {k="v",...} fragment
	c      Counter
}

func newCounterVec(name string, labels []string) *CounterVec {
	for _, l := range labels {
		mustValidName(l)
	}
	return &CounterVec{name: name, labels: labels, children: make(map[string]*labeledCounter)}
}

// With returns the child counter for the given label values (created on
// first use). The number of values must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	ls := renderLabels(v.name, v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	ch, ok := v.children[ls]
	if !ok {
		ch = &labeledCounter{labels: ls}
		v.children[ls] = ch
	}
	return &ch.c
}

func (v *CounterVec) write(w io.Writer) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeSample(w, v.name, k, v.children[k].c.Value())
	}
	v.mu.Unlock()
}

// Histogram is a fixed-bucket histogram of float64 observations.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf implicit
	counts []atomic.Int64 // per-bucket counts, len = len(bounds)+1
	sum    Counter
	count  atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	bounds := append([]float64(nil), buckets...)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(w, name+"_bucket", addLabel(labels, "le", formatFloat(b)), float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(w, name+"_bucket", addLabel(labels, "le", "+Inf"), float64(cum))
	writeSample(w, name+"_sum", labels, h.sum.Value())
	writeSample(w, name+"_count", labels, float64(h.count.Load()))
}

// HistogramVec is a histogram family over a fixed set of label names.
type HistogramVec struct {
	name    string
	labels  []string
	buckets []float64

	mu       sync.Mutex
	children map[string]*labeledHistogram
}

type labeledHistogram struct {
	labels string
	h      *Histogram
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	ls := renderLabels(v.name, v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	ch, ok := v.children[ls]
	if !ok {
		ch = &labeledHistogram{labels: ls, h: newHistogram(v.buckets)}
		v.children[ls] = ch
	}
	return ch.h
}

func (v *HistogramVec) write(w io.Writer) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*labeledHistogram, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	for _, ch := range children {
		ch.h.write(w, v.name, ch.labels)
	}
}

// DurationBuckets are the default latency buckets (seconds), spanning 1 ms
// to 30 s — the server's query-deadline range.
var DurationBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// RoundBuckets are the default decode-round-count buckets (rounds per
// query).
var RoundBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// renderLabels builds the sorted-by-registration `k="v",...` fragment.
func renderLabels(name string, labels, values []string) string {
	if len(labels) != len(values) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", name, len(labels), len(values)))
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func addLabel(labels, k, v string) string {
	frag := k + `="` + escapeLabel(v) + `"`
	if labels == "" {
		return frag
	}
	return labels + "," + frag
}

func writeSample(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatFloat(v))
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// The escapers are shared: a Replacer compiles several KiB of lookup tables
// on first use, and With renders labels on every request.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// mustValidName enforces the Prometheus metric/label name charset.
func mustValidName(s string) {
	if s == "" {
		panic("obs: empty metric or label name")
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				panic(fmt.Sprintf("obs: invalid metric or label name %q", s))
			}
		default:
			panic(fmt.Sprintf("obs: invalid metric or label name %q", s))
		}
	}
}
