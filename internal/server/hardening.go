package server

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/storage"
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
// shutting down and has at least one dataset loaded. An open object breaker,
// an object a salvage load dropped — or, in sharded mode, an open shard
// breaker — keeps the server in rotation (degraded beats dead —
// Degrade-policy queries still answer with certain results) but the body
// says so, so operators and probes that scrape the text can tell the states
// apart.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	loaded := len(s.datasets)
	s.mu.RUnlock()
	quarantined, dropped := 0, 0
	if s.eng != nil {
		quarantined = s.eng.Quarantine().Len()
	}
	for _, drops := range s.salvageDrops() {
		dropped += len(drops)
	}
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
		case quarantined > 0 || dropped > 0:
			fmt.Fprintf(w, "degraded: %d objects quarantined, %d dropped by salvage\n", quarantined, dropped)
		default:
			fmt.Fprintln(w, "ready")
		}
	}
}

// handleStatusz is the operator inspection endpoint: engine cache counters,
// the quarantine breaker's aggregate stats and per-blob entries (each
// resolved to the registered dataset and object holding the blob), the
// objects each salvaged dataset dropped, the admission-control load, and —
// in sharded mode — per-shard health and the coordinator's
// retry/hedge/breaker counters.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	names := s.names()
	out := map[string]any{
		"ready":    s.ready.Load(),
		"datasets": names,
		"dropped":  s.salvageDrops(),
		"inflight": map[string]int{"used": len(s.inflight), "max": s.cfg.MaxInFlight},
		// Accelerator memo effectiveness over every query served (sharded
		// or not): builds that keep pace with reuses mean the decode cache
		// is too small to keep the trees it pays for.
		"accel": map[string]float64{
			"builds": s.obs.totals["accel_builds"].Value(), "reuses": s.obs.totals["accel_reuses"].Value(),
		},
	}

	if s.eng != nil {
		cs := s.eng.Cache().Stats()
		out["cache"] = map[string]int64{
			"hits": cs.Hits, "misses": cs.Misses, "evictions": cs.Evictions,
			"bytes_used": cs.BytesUsed, "warm_bytes": cs.WarmBytes, "warm_starts": cs.WarmStarts,
			"rounds_applied": cs.RoundsApplied, "rounds_skipped": cs.RoundsSkipped,
			"decode_failures": cs.DecodeFailures,
		}
		out["quarantine"] = map[string]any{
			"stats":   s.eng.Quarantine().Stats(),
			"entries": s.quarantineEntries(names),
		}
		// The margin scheduler's online calibration state: one entry per
		// observed (kind, target, source, LOD) with its pruned-fraction
		// EWMA and histogram summary, so operators can see which ladder the
		// next margin query of each dataset pair will get.
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

// salvageDrops maps each registered dataset whose salvage load dropped
// objects to the report's list of them.
func (s *Server) salvageDrops() map[string][]storage.DroppedObject {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string][]storage.DroppedObject{}
	for name, d := range s.datasets {
		if d.Salvage != nil && len(d.Salvage.ObjectsDropped) > 0 {
			out[name] = d.Salvage.ObjectsDropped
		}
	}
	return out
}

// quarEntry is one /statusz breaker entry: the blob, and the dataset and
// object holding it (the first registered dataset by name; "" and -1 when
// none does any more, e.g. after the dataset was replaced).
type quarEntry struct {
	Blob        int64     `json:"blob"`
	Dataset     string    `json:"dataset,omitempty"`
	Object      int64     `json:"object"`
	State       string    `json:"state"`
	Failures    int       `json:"failures"`
	Reason      string    `json:"reason,omitempty"`
	TrippedAt   time.Time `json:"tripped_at,omitempty"`
	LastFailure time.Time `json:"last_failure,omitempty"`
}

// quarantineEntries lists the engine breaker's entries ordered by (dataset,
// object, blob), resolving each blob against the datasets named in names
// (sorted). The resolving walk runs only while some blob is unresolved.
func (s *Server) quarantineEntries(names []string) []quarEntry {
	raw := s.eng.Quarantine().Entries()
	out := make([]quarEntry, len(raw))
	at := make(map[int64]*quarEntry, len(raw))
	for i, e := range raw {
		out[i] = quarEntry{Blob: e.Key, Object: -1, State: e.State.String(), Failures: e.Failures,
			Reason: e.Reason, TrippedAt: e.TrippedAt, LastFailure: e.LastFailure}
		at[e.Key] = &out[i]
	}
	for _, name := range names {
		d, ok := s.dataset(name)
		for i := 0; ok && len(at) > 0 && i < len(d.Tileset.Objects); i++ {
			if o := d.Tileset.Objects[i]; o != nil && at[o.Comp.ID()] != nil {
				at[o.Comp.ID()].Dataset, at[o.Comp.ID()].Object = name, o.ID
				delete(at, o.Comp.ID())
			}
		}
	}
	slices.SortFunc(out, func(a, b quarEntry) int {
		return cmp.Or(strings.Compare(a.Dataset, b.Dataset), cmp.Compare(a.Object, b.Object), cmp.Compare(a.Blob, b.Blob))
	})
	return out
}

// query wraps a query handler — or an object fetch, which decodes a whole
// object on the request goroutine — with admission control and the
// per-query deadline. Admission never queues: when MaxInFlight requests are
// already running, the request is shed immediately with 503 + Retry-After
// so the client can back off or try a replica.
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

// httpSkeleton is the HTTP plumbing the query front and the shard worker
// share: request IDs and the access log, panic recovery, the body limit,
// and serving with a graceful drain. The two differ only in the values
// below the logger fields.
type httpSkeleton struct {
	log   *log.Logger
	slog  *slog.Logger
	grace time.Duration
	// ready gates /readyz; it flips to false when shutdown begins.
	ready atomic.Bool

	// name prefixes the lifecycle and panic logs ("server: …").
	name string
	// accessMsg is the message of the per-request access-log record.
	accessMsg string
	// bodyLimit caps every request body; reading past it fails the read
	// with *http.MaxBytesError.
	bodyLimit int64
	// idle is the keep-alive idle timeout of the listener's connections.
	idle time.Duration
	// ridInCtx stores the request ID in the request context, where query
	// handlers and the shard transport read it; a worker only echoes it.
	ridInCtx bool
}

// wrap puts h behind the request-ID/access-log, panic-recovery and
// body-limit middleware.
func (k *httpSkeleton) wrap(h http.Handler) http.Handler {
	return k.instrument(k.recoverPanics(k.limitBody(h)))
}

// recoverPanics converts a handler panic into a 500 and a stack-trace log
// entry, keeping the process alive; a coordinator sees a worker's 500 as a
// transport-class error and retries or fails over. http.ErrAbortHandler
// (the sanctioned way to abort a response) is re-raised for net/http to
// handle.
func (k *httpSkeleton) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				k.log.Printf("%s: panic serving %s %s: %v\n%s", k.name, r.Method, r.URL.Path, rec, debug.Stack())
				writeErrStatus(w, http.StatusInternalServerError, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// limitBody caps every request body at bodyLimit; decodeBody maps the
// failed read to 413.
func (k *httpSkeleton) limitBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, k.bodyLimit)
		}
		next.ServeHTTP(w, r)
	})
}

// serve serves h on ln until ctx is cancelled. It then flips /readyz to
// draining — so probes stop steering traffic here — stops accepting
// connections, and waits up to the shutdown grace for in-flight requests to
// finish before closing the stragglers.
func (k *httpSkeleton) serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       k.idle,
		ErrorLog:          k.log,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	k.ready.Store(false)
	k.log.Printf("%s: shutdown requested, draining for up to %s", k.name, k.grace)
	//lint:ignore ctxflow the drain deadline must outlive the run context, which is already canceled at this point; a fresh root is deliberate
	shCtx, cancel := context.WithTimeout(context.Background(), k.grace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		srv.Close()
		return fmt.Errorf("%s: drain incomplete: %w", k.name, err)
	}
	k.log.Printf("%s: drained cleanly", k.name)
	return nil
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
	return s.serve(ctx, ln, s.Handler())
}
