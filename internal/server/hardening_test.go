package server

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/ppvp"
)

// newHardenedServer builds a dedicated server (own engine, cache disabled
// so fault-injected decodes always fire) with two tiny datasets.
func newHardenedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	eng := core.NewEngine(core.EngineOptions{CacheBytes: -1, Workers: 2})
	t.Cleanup(eng.Close)
	comp := ppvp.DefaultOptions()
	comp.Rounds = 6
	dopts := core.DatasetOptions{Compression: comp, Cuboids: 8}
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(60, 60, 60)}
	ma, mb := datagen.NucleiPair(datagen.NucleiOptions{Count: 6, SubdivisionLevel: 1, Seed: 61, Space: space})
	a, err := eng.BuildDataset("alpha", ma, dopts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.BuildDataset("beta", mb, dopts)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	s := NewWithConfig(eng, cfg)
	s.AddDataset(a)
	s.AddDataset(b)
	return s
}

const knnBody = `{"target":"alpha","source":"beta","accel":"aabb"}`

// TestPanicInDecodeWorkerReturns500AndServerSurvives injects a panic into a
// decode worker mid-join: that request must get a 500 while the process —
// and the very next request — keep working.
func TestPanicInDecodeWorkerReturns500AndServerSurvives(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := newHardenedServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Panic: "geometry exploded", Times: 1})
	resp, err := http.Post(ts.URL+"/query/nn", "application/json", strings.NewReader(knnBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status with injected panic = %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panic") {
		t.Errorf("error body does not mention the panic: %s", body)
	}

	// The fault is spent; the same server must answer the next request.
	resp, err = http.Post(ts.URL+"/query/nn", "application/json", strings.NewReader(knnBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after recovered panic = %d", resp.StatusCode)
	}
}

// TestHandlerPanicRecovered drives the recovery middleware directly with a
// panicking handler.
func TestHandlerPanicRecovered(t *testing.T) {
	s := newHardenedServer(t, Config{})
	h := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
}

// TestQueryTimeoutReturns504 sets a short per-query deadline and slows every
// decode down; the query must come back as a timeout, promptly.
func TestQueryTimeoutReturns504(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := newHardenedServer(t, Config{QueryTimeout: 25 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Delay: 10 * time.Millisecond})
	t0 := time.Now()
	resp, err := http.Post(ts.URL+"/query/nn", "application/json", strings.NewReader(knnBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("timed-out query took %v", elapsed)
	}
}

// TestAdmissionControlSheds503 fills the single admission slot with a query
// blocked inside the engine, then checks the next query and an object fetch
// are shed with 503 + Retry-After while non-query endpoints stay available.
func TestAdmissionControlSheds503(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := newHardenedServer(t, Config{MaxInFlight: 1, QueryTimeout: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Hook: func() error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	}})

	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query/nn", "application/json", strings.NewReader(knnBody))
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first query never reached the engine")
	}

	// Slot taken: the next query must be shed immediately.
	resp, err := http.Post(ts.URL+"/query/nn", "application/json", strings.NewReader(knnBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	// An object fetch decodes a whole object: it is admitted like a query.
	// Its checks report with Error, not Fatal, so a failure still releases
	// the held query below instead of hanging the server's Close.
	if oresp, err := http.Get(ts.URL + "/datasets/alpha/objects/0?format=ply"); err != nil {
		t.Error(err)
	} else {
		oresp.Body.Close()
		if oresp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("object fetch during saturation: status %d, want 503", oresp.StatusCode)
		} else if oresp.Header.Get("Retry-After") == "" {
			t.Error("object fetch 503 without Retry-After")
		}
	}

	// Non-query endpoints are not subject to admission control.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz during saturation: %d", hresp.StatusCode)
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first (admitted) query status = %d", code)
	}

	// Slot free again.
	resp, err = http.Post(ts.URL+"/query/nn", "application/json", strings.NewReader(knnBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after release = %d", resp.StatusCode)
	}
}

// TestBodyLimitReturns413 caps request bodies and sends an oversized one.
func TestBodyLimitReturns413(t *testing.T) {
	s := newHardenedServer(t, Config{MaxBodyBytes: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := `{"target":"alpha","source":"beta","lods":[` + strings.Repeat("0,", 200) + `0]}`
	resp, err := http.Post(ts.URL+"/query/nn", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestHealthAndReadiness covers /healthz, /readyz, and the ready flip.
func TestHealthAndReadiness(t *testing.T) {
	s := newHardenedServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d", code)
	}
	s.ready.Store(false)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d", code)
	}
	s.ready.Store(true)

	// A server with no datasets is alive but not ready.
	empty := NewWithConfig(core.NewEngine(core.EngineOptions{}), Config{Logger: log.New(io.Discard, "", 0)})
	tse := httptest.NewServer(empty.Handler())
	defer tse.Close()
	resp, err := http.Get(tse.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty readyz = %d", resp.StatusCode)
	}
}

// TestGracefulShutdownOnSIGTERM runs the real Serve loop wired to a signal
// context (as main is), sends this process SIGTERM while a query is blocked
// inside the engine, and asserts the in-flight query completes with 200 and
// Serve returns nil — the binary would exit 0.
func TestGracefulShutdownOnSIGTERM(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := newHardenedServer(t, Config{QueryTimeout: -1, ShutdownGrace: 10 * time.Second})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Hook: func() error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	}})

	queryDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/query/nn", "application/json", strings.NewReader(knnBody))
		if err != nil {
			queryDone <- -1
			return
		}
		resp.Body.Close()
		queryDone <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the engine")
	}

	// Deliver a real SIGTERM to this process; the notify context catches it.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Draining has begun; let the in-flight query finish.
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after SIGTERM")
	}
	if code := <-queryDone; code != http.StatusOK {
		t.Fatalf("in-flight query during drain = %d, want 200", code)
	}
	if s.ready.Load() {
		t.Error("server still ready after drain")
	}
}

// TestWriteJSONEncodeFailure checks an unencodable value becomes a logged
// 500, not a silent half-written 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	s := newHardenedServer(t, Config{})
	rec := httptest.NewRecorder()
	s.writeJSON(rec, map[string]any{"bad": func() {}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
}
