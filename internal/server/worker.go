package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
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
	httpSkeleton
	node *shard.Node
}

// NewWorker wraps a shard node for serving. cfg supplies the logger and
// shutdown grace; its query-frontend fields (timeouts, admission) do not
// apply to workers.
func NewWorker(node *shard.Node, cfg Config) *Worker {
	cfg.setDefaults()
	w := &Worker{
		httpSkeleton: httpSkeleton{
			log: cfg.Logger, slog: cfg.Slog, grace: cfg.ShutdownGrace,
			name: "worker", accessMsg: "worker request", bodyLimit: workerBodyLimit, idle: 90 * time.Second,
		},
		node: node,
	}
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
	return w.wrap(mux)
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
	return w.serve(ctx, ln, w.Handler())
}
