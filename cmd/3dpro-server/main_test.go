package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/leakcheck"
	"repro/internal/ppvp"
	"repro/internal/server"
	"repro/internal/shard"
)

func quietConfig() server.Config {
	return server.Config{
		Logger: log.New(io.Discard, "", 0),
		Slog:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// buildPair builds two overlapping nuclei datasets on e.
func buildPair(t *testing.T, e *core.Engine) (*core.Dataset, *core.Dataset) {
	t.Helper()
	comp := ppvp.DefaultOptions()
	comp.Rounds = 6
	opts := core.DatasetOptions{Compression: comp, Cuboids: 8}
	gen := datagen.NucleiOptions{Count: 12, SubdivisionLevel: 1, Seed: 61}
	a, err := e.BuildDataset("alpha", datagen.Nuclei(gen), opts)
	if err != nil {
		t.Fatal(err)
	}
	gen.Seed, gen.Offset = 62, geom.V(2.5, 1.5, 1)
	b, err := e.BuildDataset("beta", datagen.Nuclei(gen), opts)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// loopbackFront starts n loopback workers and a sharded front over them
// holding datasets; the returned stop drains the workers.
func loopbackFront(t *testing.T, n int, datasets ...*core.Dataset) (*server.Server, *shard.Coordinator, func() error) {
	t.Helper()
	urls, stop, err := startLoopbackWorkers(n, core.EngineOptions{Workers: 2}, quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := shard.NewHTTPTransport(urls)
	t.Cleanup(tr.Close)
	coord := shard.NewWithTransport(tr, shard.Options{Shards: n})
	t.Cleanup(coord.Close)
	srv := server.NewSharded(coord, quietConfig())
	for _, d := range datasets {
		if err := srv.AddDataset(d); err != nil {
			t.Fatal(errors.Join(err, stop()))
		}
	}
	return srv, coord, stop
}

// post sends body to url and returns the decoded top-level fields of a 200
// answer.
func post(t *testing.T, client *http.Client, url, body string) map[string]json.RawMessage {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s (%v)", url, resp.StatusCode, raw, err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoopbackShardsMatchSingleEngine: a front over 3 loopback workers —
// the -shards 3 wiring — answers every query kind byte-identical to a
// single engine.
func TestLoopbackShardsMatchSingleEngine(t *testing.T) {
	leakcheck.Check(t)
	eng := core.NewEngine(core.EngineOptions{Workers: 2})
	defer eng.Close()
	a, b := buildPair(t, eng)
	sharded, _, stop := loopbackFront(t, 3, a, b)
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("stopping workers: %v", err)
		}
	}()
	single := server.NewWithConfig(eng, quietConfig())
	for _, d := range []*core.Dataset{a, b} {
		if err := single.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	shardedTS, singleTS := httptest.NewServer(sharded.Handler()), httptest.NewServer(single.Handler())
	defer shardedTS.Close()
	defer singleTS.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	bounds := a.Tree().Bounds()
	lo, hi := bounds.Min, bounds.Min.Lerp(bounds.Max, 0.6)
	p := a.Tileset.Object(0).MBB().Center()
	for _, q := range []struct{ path, key, body string }{
		{"/query/intersect", "pairs", `{"target":"alpha","source":"beta"}`},
		{"/query/within", "pairs", `{"target":"alpha","source":"beta","dist":3}`},
		{"/query/nn", "neighbors", `{"target":"alpha","source":"beta","k":2}`},
		{"/query/range", "objects", fmt.Sprintf(`{"dataset":"alpha","min":[%g,%g,%g],"max":[%g,%g,%g]}`, lo.X, lo.Y, lo.Z, hi.X, hi.Y, hi.Z)},
		{"/query/point", "objects", fmt.Sprintf(`{"dataset":"alpha","point":[%g,%g,%g]}`, p.X, p.Y, p.Z)},
	} {
		want := post(t, client, singleTS.URL+q.path, q.body)[q.key]
		got := post(t, client, shardedTS.URL+q.path, q.body)[q.key]
		if len(want) < 3 {
			t.Fatalf("%s: single engine answered %s: fixture proves nothing", q.path, want)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sharded %s differs:\n got %s\nwant %s", q.path, q.key, got, want)
		}
	}
}

// TestFrontDrainsBeforeWorkers cancels the run while a query's leg has not
// yet left the front: serveFront drains the front, the leg still reaches a
// live worker and the query answers exactly, and only then do the workers
// drain — no leg fails with a connection error.
func TestFrontDrainsBeforeWorkers(t *testing.T) {
	leakcheck.Check(t)
	defer faultinject.Reset()
	eng := core.NewEngine(core.EngineOptions{Workers: 2})
	defer eng.Close()
	a, b := buildPair(t, eng)
	want, _, err := eng.IntersectJoin(context.Background(), a, b, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, coord, stop := loopbackFront(t, 3, a, b)

	// A free port for the front: serveFront listens itself, as main does.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	served := make(chan error, 1)
	go func() { served <- serveFront(runCtx, srv, addr, stop) }()

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front never came up: %v", err)
		}
	}

	// Hold the first leg before it leaves the front.
	entered, hold := make(chan struct{}), make(chan struct{})
	faultinject.Arm(faultinject.PointShardNetSend, faultinject.Fault{Times: 1, Hook: func() error {
		close(entered)
		<-hold
		return nil
	}})
	type result struct {
		pairs []core.Pair
		err   error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := client.Post("http://"+addr+"/query/intersect", "application/json",
			strings.NewReader(`{"target":"alpha","source":"beta"}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var out struct {
			Pairs []core.Pair `json:"pairs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		done <- result{out.Pairs, err}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the query's leg never reached the transport")
	}

	cancelRun()
	// The front's listener closes as its drain begins.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("front still accepting connections after the run was cancelled")
		}
	}
	close(hold)

	res := <-done
	if res.err != nil {
		t.Fatalf("query in flight across the drain failed: %v", res.err)
	}
	if len(want) == 0 || !slices.Equal(res.pairs, want) {
		t.Fatalf("drained query answered %v, want %v", res.pairs, want)
	}
	if m := coord.Metrics(); m.ShardErrors != 0 || m.Retries != 0 {
		t.Fatalf("legs failed during the drain: %+v", m)
	}
	if err := <-served; err != nil {
		t.Fatalf("serveFront: %v", err)
	}
}
