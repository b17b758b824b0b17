package server

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/shard"
)

// workerBodyLimit caps worker request bodies. Dataset installs ship a whole
// home group's compressed blobs in one PUT, so the frontend's 1 MiB default
// would reject legitimate installs; queries stay far below this too.
const workerBodyLimit = 256 << 20

// Worker is the HTTP face of one shard process: a shard.Node behind the
// shard wire protocol (POST /shard/query, PUT /shard/dataset) plus the
// operational endpoints a coordinator's prober and an orchestrator expect
// (/healthz, /readyz). Run with `3dpro-server -shard-worker -listen :PORT`.
//
// A worker deliberately has no query-level admission control or timeout:
// the coordinator owns the query deadline (it rides the request context via
// the client disconnecting) and its scatter fan-out bounds concurrency.
type Worker struct {
	node  *shard.Node
	ready atomic.Bool
	log   *log.Logger
	slog  *slog.Logger
	grace time.Duration
}

// NewWorker wraps a shard node for serving. cfg supplies the logger and
// shutdown grace; its query-frontend fields (timeouts, admission) do not
// apply to workers.
func NewWorker(node *shard.Node, cfg Config) *Worker {
	cfg.setDefaults()
	w := &Worker{node: node, log: cfg.Logger, slog: cfg.Slog, grace: cfg.ShutdownGrace}
	w.ready.Store(true)
	return w
}

// Handler returns the worker's full route set with its middleware stack.
func (w *Worker) Handler() http.Handler {
	mux := shard.WorkerMux(w.node)
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain")
		if !w.ready.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(rw, "draining")
			return
		}
		fmt.Fprintln(rw, "ready")
	})
	return w.instrument(w.recoverPanics(w.limitBody(mux)))
}

// instrument echoes the coordinator's propagated request ID and emits one
// access-log line per request, so a query's scatter legs can be correlated
// across the worker fleet.
func (w *Worker) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		rw.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: rw}
		start := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		w.slog.LogAttrs(r.Context(), slog.LevelInfo, "worker request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("elapsed", time.Since(start)),
		)
	})
}

// recoverPanics keeps the worker process alive through a handler panic; the
// coordinator sees the 500 as a transport-class error and retries or fails
// over.
func (w *Worker) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				w.log.Printf("worker: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				writeErrStatus(rw, http.StatusInternalServerError, "internal server error")
			}
		}()
		next.ServeHTTP(rw, r)
	})
}

func (w *Worker) limitBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(rw, r.Body, workerBodyLimit)
		}
		next.ServeHTTP(rw, r)
	})
}

// Run listens on addr and serves until ctx is cancelled, then drains
// gracefully.
func (w *Worker) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return w.Serve(ctx, ln)
}

// Serve serves the worker on ln until ctx is cancelled, then flips /readyz
// to draining — so the prober stops steering queries back — and waits up to
// the shutdown grace for in-flight scatter legs to finish before closing
// stragglers.
func (w *Worker) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           w.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       90 * time.Second,
		ErrorLog:          w.log,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	w.ready.Store(false)
	w.log.Printf("worker: shutdown requested, draining for up to %s", w.grace)
	//lint:ignore ctxflow the drain deadline must outlive the run context, which is already canceled at this point; a fresh root is deliberate
	shCtx, cancel := context.WithTimeout(context.Background(), w.grace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		srv.Close()
		return fmt.Errorf("worker: drain incomplete: %w", err)
	}
	w.log.Printf("worker: drained cleanly")
	return nil
}
