package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndVecExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "A counter.")
	c.Inc()
	c.Add(2.5)

	v := r.CounterVec("test_by_kind_total", "A labeled counter.", "kind", "status")
	v.With("nn", "ok").Add(3)
	v.With("intersect", "error").Inc()
	// Same child twice must accumulate, not reset.
	v.With("nn", "ok").Inc()

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP test_total A counter.",
		"# TYPE test_total counter",
		"test_total 3.5",
		"# TYPE test_by_kind_total counter",
		`test_by_kind_total{kind="intersect",status="error"} 1`,
		`test_by_kind_total{kind="nn",status="ok"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Series within a family are sorted: intersect before nn.
	if strings.Index(out, `kind="intersect"`) > strings.Index(out, `kind="nn"`) {
		t.Error("label series not sorted")
	}
}

func TestGaugeAndCounterFunc(t *testing.T) {
	r := NewRegistry()
	val := 41.0
	r.GaugeFunc("test_gauge", "Sampled gauge.", func() float64 { return val })
	r.CounterFunc("test_fn_total", "Sampled counter.", func() float64 { return 7 })

	val = 42
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "# TYPE test_gauge gauge") || !strings.Contains(out, "test_gauge 42") {
		t.Errorf("gauge not sampled at scrape time:\n%s", out)
	}
	if !strings.Contains(out, "test_fn_total 7") {
		t.Errorf("counter func missing:\n%s", out)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		"test_seconds_sum 56.05",
		"test_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := h.count.Load(); n != 5 {
		t.Errorf("count = %d, want 5", n)
	}

	// An observation exactly on a bound lands in that bound's bucket.
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(1)
	if got := h2.counts[0].Load(); got != 1 {
		t.Errorf("boundary observation landed in bucket %v", h2.counts)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_hv_seconds", "Latency by kind.", []float64{1}, "kind")
	v.With("nn").Observe(0.5)
	v.With("nn").Observe(2)
	v.With("within").Observe(0.1)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`test_hv_seconds_bucket{kind="nn",le="1"} 1`,
		`test_hv_seconds_bucket{kind="nn",le="+Inf"} 2`,
		`test_hv_seconds_count{kind="nn"} 2`,
		`test_hv_seconds_count{kind="within"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "x")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("Value() = %v, want 8000", c.Value())
	}
}

func TestRegistryPanicsOnBadNames(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "0starts_with_digit", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %q did not panic", bad)
				}
			}()
			r.Counter(bad, "x")
		}()
	}
	r.Counter("dup_total", "x")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		r.Counter("dup_total", "x")
	}()
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("esc_total", "x", "path")
	v.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", b.String())
	}
}

// TestHandlerServesParseableText scrapes the HTTP handler and runs every
// sample line through a minimal text-format parser.
func TestHandlerServesParseableText(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "x").Add(2)
	r.Histogram("h_seconds", "y", DurationBuckets).Observe(0.42)
	r.GaugeFunc("h_gauge", "z", func() float64 { return -1.5 })

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	var buf strings.Builder
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheusText(buf.String())
	if err != nil {
		t.Fatalf("unparseable exposition: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"h_total", "h_seconds", "h_gauge"} {
		if _, ok := fams[want]; !ok {
			t.Errorf("family %q missing from scrape", want)
		}
	}
}
