package server

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/quarantine"
)

// Config tunes the production-hardening layer of the server. The zero value
// selects the documented defaults.
type Config struct {
	// QueryTimeout bounds each query request's context; a query that
	// exceeds it returns 504. Zero means the 30s default, negative
	// disables the deadline.
	QueryTimeout time.Duration
	// MaxInFlight caps concurrently admitted query requests; excess
	// requests are shed with 503 + Retry-After. Default 2×GOMAXPROCS.
	MaxInFlight int
	// MaxBodyBytes caps request body sizes (default 1 MiB). Oversized
	// bodies return 413.
	MaxBodyBytes int64
	// ShutdownGrace bounds connection draining during graceful shutdown
	// (default 15s); connections still open after it are closed hard.
	ShutdownGrace time.Duration
	// Logger receives middleware and lifecycle logs (default log.Default()).
	Logger *log.Logger
	// Slog receives the structured access log — one record per request with
	// the request ID, method, path, status, and latency (default
	// slog.Default()).
	Slog *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiling endpoints expose memory contents and must not
	// face untrusted clients.
	EnablePprof bool
}

func (c *Config) setDefaults() {
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.Slog == nil {
		c.Slog = slog.Default()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports whether the server should receive traffic: it is not
// shutting down and has at least one dataset loaded. A non-empty quarantine
// — or, in sharded mode, an open shard breaker — keeps the server in
// rotation (degraded beats dead — Degrade-policy queries still answer with
// certain results) but the body says so, so operators and probes that
// scrape the text can tell the states apart.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	loaded := len(s.datasets)
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain")
	switch {
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case loaded == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no datasets loaded")
	default:
		w.WriteHeader(http.StatusOK)
		switch {
		case s.coord != nil && s.coord.Degraded():
			fmt.Fprintf(w, "degraded: %d shard breakers open\n", s.coord.Breaker().Len())
		case s.eng != nil && s.eng.Quarantine().Len() > 0:
			fmt.Fprintf(w, "degraded: %d objects quarantined\n", s.eng.Quarantine().Len())
		default:
			fmt.Fprintln(w, "ready")
		}
	}
}

// handleStatusz is the operator inspection endpoint: engine cache counters,
// the quarantine registry's aggregate stats and per-object entries (with
// dataset sequence numbers resolved back to names where possible), the
// admission-control load, and — in sharded mode — per-shard health and the
// coordinator's retry/hedge/breaker counters.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	seqNames := make(map[int64]string, len(s.datasets))
	names := make([]string, 0, len(s.datasets))
	for name, d := range s.datasets {
		seqNames[d.Seq()] = name
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)

	out := map[string]any{
		"ready":    s.ready.Load(),
		"datasets": names,
		"inflight": map[string]int{"used": len(s.inflight), "max": s.cfg.MaxInFlight},
		// Accelerator memo effectiveness over every query served (sharded
		// or not): builds that keep pace with reuses mean the decode cache
		// is too small to keep the trees it pays for.
		"accel": map[string]float64{
			"builds": s.obs.accelBuilds.Value(), "reuses": s.obs.accelReuses.Value(),
		},
	}

	if s.eng != nil {
		type quarEntry struct {
			quarantine.Entry
			DatasetName string `json:"dataset,omitempty"`
		}
		snap := s.eng.Quarantine().Snapshot()
		entries := make([]quarEntry, len(snap))
		for i, e := range snap {
			entries[i] = quarEntry{Entry: e, DatasetName: seqNames[e.Dataset]}
		}
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].Dataset != entries[j].Dataset {
				return entries[i].Dataset < entries[j].Dataset
			}
			return entries[i].Object < entries[j].Object
		})

		cs := s.eng.Cache().Stats()
		out["cache"] = map[string]int64{
			"hits": cs.Hits, "misses": cs.Misses, "evictions": cs.Evictions,
			"bytes_used": cs.BytesUsed, "warm_starts": cs.WarmStarts,
			"rounds_applied": cs.RoundsApplied, "rounds_skipped": cs.RoundsSkipped,
			"decode_failures": cs.DecodeFailures,
		}
		out["quarantine"] = map[string]any{
			"stats":   s.eng.Quarantine().Stats(),
			"entries": entries,
		}
		// The margin scheduler's online calibration state: one entry per
		// observed (kind, LOD) with its pruned-fraction EWMA and histogram
		// summary, so operators can see which ladder the next margin query
		// of each kind will get.
		out["sched"] = s.eng.SchedCalibration()
	}

	if s.coord != nil {
		out["shards"] = map[string]any{
			"count":    s.coord.Shards(),
			"replicas": s.coord.Replicas(),
			"degraded": s.coord.Degraded(),
			"health":   s.coord.Health(),
			"metrics":  s.coord.Metrics(),
			"breaker":  s.coord.Breaker().Stats(),
		}
	}

	s.writeJSON(w, out)
}

// recoverPanics converts a handler panic into a 500 and a stack-trace log
// entry, keeping the process alive. http.ErrAbortHandler (the sanctioned
// way to abort a response) is re-raised for net/http to handle.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				writeErrStatus(w, http.StatusInternalServerError, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// limitBody caps every request body at cfg.MaxBodyBytes; reading past the
// cap fails the read with *http.MaxBytesError, which decodeBody maps to 413.
func (s *Server) limitBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// query wraps a query handler with admission control and the per-query
// deadline. Admission never queues: when MaxInFlight requests are already
// running, the request is shed immediately with 503 + Retry-After so the
// client can back off or try a replica.
func (s *Server) query(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.obs.admissionRej.Inc()
			w.Header().Set("Retry-After", "1")
			writeErrStatus(w, http.StatusServiceUnavailable,
				fmt.Sprintf("server at capacity (%d queries in flight)", s.cfg.MaxInFlight))
			return
		}
		if s.cfg.QueryTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	})
}

// Run listens on addr and serves until ctx is cancelled, then drains
// gracefully. Wire ctx to SIGINT/SIGTERM (signal.NotifyContext) for clean
// operational shutdown; a nil error means every in-flight request finished.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve serves the API on ln until ctx is cancelled. It then flips /readyz
// to draining, stops accepting connections, and waits up to
// cfg.ShutdownGrace for in-flight requests to finish before closing the
// stragglers.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
		ErrorLog:          s.log,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.ready.Store(false)
	s.log.Printf("server: shutdown requested, draining for up to %s", s.cfg.ShutdownGrace)
	//lint:ignore ctxflow the drain deadline must outlive the run context, which is already canceled at this point; a fresh root is deliberate
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		srv.Close()
		return fmt.Errorf("server: drain incomplete: %w", err)
	}
	s.log.Printf("server: drained cleanly")
	return nil
}
