// Package server exposes the 3DPro engine over HTTP with a small JSON API,
// making the library usable as the standalone query system the paper
// describes. Query handlers honor request contexts, so abandoned HTTP
// requests cancel the underlying join.
//
//	GET  /datasets                     list loaded datasets
//	GET  /datasets/{name}              one dataset's metadata
//	GET  /datasets/{name}/objects/{id} decoded mesh (?lod=K&format=json|off|ply)
//	POST /query/intersect              {"target","source","paradigm","accel"}
//	POST /query/within                 + "dist"
//	POST /query/nn                     + "k"
//	POST /query/range                  {"dataset","min":[x,y,z],"max":[x,y,z]}
//	POST /query/point                  {"dataset","point":[x,y,z]}
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Server serves queries against a set of named datasets, either directly on
// one engine or — when built with NewSharded — through a sharded
// coordinator that scatter-gathers over per-shard engines.
type Server struct {
	httpSkeleton
	eng   *core.Engine       // nil in sharded mode
	coord *shard.Coordinator // nil in single-engine mode
	cfg   Config

	// inflight is the admission-control semaphore for query endpoints.
	inflight chan struct{}

	// obs holds the /metrics registry and the /debug/queries ring.
	obs *serverObs

	mu       sync.RWMutex
	datasets map[string]*core.Dataset
}

// NewWithConfig returns a server bound to the engine with explicit limits.
func NewWithConfig(eng *core.Engine, cfg Config) *Server {
	return newServer(eng, nil, cfg)
}

// NewSharded returns a server that routes every query through the sharded
// coordinator instead of a single engine. Datasets added via AddDataset are
// placed across the coordinator's shards; /readyz and /statusz report
// per-shard health and /metrics gains the threedpro_shard_* families.
func NewSharded(coord *shard.Coordinator, cfg Config) *Server {
	return newServer(nil, coord, cfg)
}

func newServer(eng *core.Engine, coord *shard.Coordinator, cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		httpSkeleton: httpSkeleton{
			log: cfg.Logger, slog: cfg.Slog, grace: cfg.ShutdownGrace,
			name: "server", accessMsg: "request", bodyLimit: cfg.MaxBodyBytes, idle: 60 * time.Second, ridInCtx: true,
		},
		eng:      eng,
		coord:    coord,
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.MaxInFlight),
		datasets: make(map[string]*core.Dataset),
	}
	s.ready.Store(true)
	s.initObs()
	return s
}

// AddDataset registers a dataset under its name. In sharded mode it also
// places the dataset's objects across the coordinator's shards; placement
// failure leaves the dataset unregistered.
func (s *Server) AddDataset(d *core.Dataset) error {
	if s.coord != nil {
		if err := s.coord.AddDataset(d); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.datasets[d.Name] = d
	s.mu.Unlock()
	return nil
}

// names returns the registered dataset names, sorted.
func (s *Server) names() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

func (s *Server) dataset(name string) (*core.Dataset, bool) {
	s.mu.RLock()
	d, ok := s.datasets[name]
	s.mu.RUnlock()
	return d, ok
}

// Handler returns the HTTP handler: the API routes wrapped in the
// request-ID/access-log, panic-recovery and body-limit middleware, with the
// query endpoints and object fetches additionally behind admission control
// and per-query deadlines. /metrics serves the Prometheus registry and
// /debug/queries the recent-query ring; the pprof endpoints mount only when
// Config.EnablePprof is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.Handle("GET /metrics", s.obs.reg.Handler())
	mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	mux.HandleFunc("GET /datasets", s.handleListDatasets)
	mux.HandleFunc("GET /datasets/{name}", s.handleDataset)
	mux.Handle("GET /datasets/{name}/objects/{id}", s.query(s.handleObject))
	mux.Handle("POST /query/intersect", s.query(s.handleIntersect))
	mux.Handle("POST /query/within", s.query(s.handleWithin))
	mux.Handle("POST /query/nn", s.query(s.handleNN))
	mux.Handle("POST /query/range", s.query(s.handleRange))
	mux.Handle("POST /query/point", s.query(s.handlePoint))
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.wrap(mux)
}

type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) *httpError {
	return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// writeJSON encodes v as compact JSON into a buffer first so an encoding
// failure can still become a 500 instead of a silently truncated 200.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		s.log.Printf("server: encoding response: %v", err)
		writeErrStatus(w, http.StatusInternalServerError, fmt.Sprintf("encoding response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.log.Printf("server: writing response: %v", err)
	}
}

// statusClientClosedRequest is the nginx convention for "client went away
// before the response was ready"; no standard code fits.
const statusClientClosedRequest = 499

// writeErr maps err onto an HTTP status. Internal errors (500) are logged
// in full — tagged with the request's ID so the log line joins up with the
// access log — but only their first line is sent to the client, so a worker
// panic's stack trace lands in the log rather than the response body.
func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &he):
		code = he.code
	case errors.As(err, &mbe):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = statusClientClosedRequest
	case errors.Is(err, shard.ErrUnknownDataset):
		code = http.StatusNotFound
	case errors.Is(err, shard.ErrAllShardsFailed), errors.Is(err, shard.ErrShardFailed):
		// The backend, not the request, failed: a fail-fast query lost a
		// shard (or a degrade query lost all of them).
		code = http.StatusBadGateway
	}
	msg := err.Error()
	if code == http.StatusInternalServerError {
		s.log.Printf("server: internal error (request %s): %v", requestID(r), err)
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i]
		}
	}
	writeErrStatus(w, code, msg)
}

func writeErrStatus(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// decodeBody decodes the JSON request body, mapping an exceeded body limit
// to 413 and malformed JSON to 400.
func decodeBody(r *http.Request, v any) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &httpError{code: http.StatusRequestEntityTooLarge, msg: mbe.Error()}
		}
		return badRequest("invalid JSON body: %v", err)
	}
	return nil
}

// datasetInfo is the JSON shape of one dataset.
type datasetInfo struct {
	Name            string     `json:"name"`
	Objects         int        `json:"objects"`
	MaxLOD          int        `json:"max_lod"`
	CompressedBytes int64      `json:"compressed_bytes"`
	Bounds          [6]float64 `json:"bounds"` // minx,miny,minz,maxx,maxy,maxz
}

func info(d *core.Dataset) datasetInfo {
	b := d.Tree().Bounds()
	return datasetInfo{
		Name:            d.Name,
		Objects:         d.Len(),
		MaxLOD:          d.MaxLOD(),
		CompressedBytes: d.CompressedBytes(),
		Bounds:          [6]float64{b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z},
	}
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	names := s.names()
	out := make([]datasetInfo, 0, len(names))
	for _, n := range names {
		if d, ok := s.dataset(n); ok {
			out = append(out, info(d))
		}
	}
	s.writeJSON(w, out)
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	d, ok := s.dataset(r.PathValue("name"))
	if !ok {
		s.writeErr(w, r, notFound("dataset %q not loaded", r.PathValue("name")))
		return
	}
	s.writeJSON(w, info(d))
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	d, ok := s.dataset(r.PathValue("name"))
	if !ok {
		s.writeErr(w, r, notFound("dataset %q not loaded", r.PathValue("name")))
		return
	}
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		s.writeErr(w, r, notFound("object %q not in dataset", r.PathValue("id")))
		return
	}
	obj := d.Tileset.Object(id)
	if obj == nil {
		s.writeErr(w, r, notFound("object %q not in dataset", r.PathValue("id")))
		return
	}
	comp := obj.Comp
	lod := comp.MaxLOD()
	if ls := r.URL.Query().Get("lod"); ls != "" {
		l, err := strconv.Atoi(ls)
		if err != nil || l < 0 || l > comp.MaxLOD() {
			s.writeErr(w, r, badRequest("lod must be in [0,%d]", comp.MaxLOD()))
			return
		}
		lod = l
	}
	m, err := comp.Decode(lod)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "off":
		w.Header().Set("Content-Type", "text/plain")
		m.WriteOFF(w)
	case "ply":
		w.Header().Set("Content-Type", "text/plain")
		m.WritePLY(w)
	case "", "json":
		verts := make([][3]float64, len(m.Vertices))
		for i, v := range m.Vertices {
			verts[i] = [3]float64{v.X, v.Y, v.Z}
		}
		faces := make([][3]int32, len(m.Faces))
		for i, f := range m.Faces {
			faces[i] = [3]int32(f)
		}
		s.writeJSON(w, map[string]any{
			"lod":      lod,
			"vertices": verts,
			"faces":    faces,
			"volume":   m.Volume(),
		})
	default:
		s.writeErr(w, r, badRequest("unknown format %q", format))
	}
}

// queryRequest is the shared JSON body of the join endpoints.
type queryRequest struct {
	Target   string     `json:"target"`
	Source   string     `json:"source"`
	Dataset  string     `json:"dataset"`
	Paradigm string     `json:"paradigm"` // "fr" | "fpr" (default fpr)
	Accel    string     `json:"accel"`    // brute|aabb|partition|gpu|partition+gpu
	Dist     float64    `json:"dist"`
	K        int        `json:"k"`
	LODs     []int      `json:"lods"`
	Point    [3]float64 `json:"point"`
	Min      [3]float64 `json:"min"`
	Max      [3]float64 `json:"max"`
	// OnError selects the partial-failure policy: "fail_fast" (default)
	// aborts on the first object failure, "degrade" skips failing objects
	// and reports them in the stats. ErrorBudget bounds the distinct failed
	// objects a degrade query tolerates (0 = engine default, -1 = unlimited).
	OnError     string `json:"on_error"`
	ErrorBudget int    `json:"error_budget"`
	// Trace requests the per-query span timeline; the aggregated events
	// come back in the response's stats.trace.
	Trace bool `json:"trace"`
	// Sched selects the LOD scheduling policy: "margin" (default) for the
	// online-calibrated margin scheduler, "static" for the paper's §4.4
	// reference rule. Both return byte-identical results.
	Sched string `json:"sched"`
}

func (s *Server) parseJoin(r *http.Request) (*core.Dataset, *core.Dataset, core.QueryOptions, queryRequest, error) {
	var req queryRequest
	var q core.QueryOptions
	if err := decodeBody(r, &req); err != nil {
		return nil, nil, q, req, err
	}
	target, ok := s.dataset(req.Target)
	if !ok {
		return nil, nil, q, req, notFound("target dataset %q not loaded", req.Target)
	}
	source, ok := s.dataset(req.Source)
	if !ok {
		return nil, nil, q, req, notFound("source dataset %q not loaded", req.Source)
	}
	q, err := options(req)
	return target, source, q, req, err
}

// parseDataset is parseJoin for the single-dataset endpoints (range,
// point).
func (s *Server) parseDataset(r *http.Request) (*core.Dataset, core.QueryOptions, queryRequest, error) {
	var req queryRequest
	var q core.QueryOptions
	if err := decodeBody(r, &req); err != nil {
		return nil, q, req, err
	}
	d, ok := s.dataset(req.Dataset)
	if !ok {
		return nil, q, req, notFound("dataset %q not loaded", req.Dataset)
	}
	q, err := options(req)
	return d, q, req, err
}

func options(req queryRequest) (core.QueryOptions, error) {
	q := core.QueryOptions{Paradigm: core.FPR, K: req.K, LODs: req.LODs}
	switch req.Paradigm {
	case "", "fpr":
	case "fr":
		q.Paradigm = core.FR
	default:
		return q, badRequest("unknown paradigm %q", req.Paradigm)
	}
	switch req.Accel {
	case "", "aabb":
		q.Accel = core.AABB
	case "brute":
		q.Accel = core.BruteForce
	case "partition":
		q.Accel = core.Partition
	case "gpu":
		q.Accel = core.GPU
	case "partition+gpu":
		q.Accel = core.PartitionGPU
	default:
		return q, badRequest("unknown accel %q", req.Accel)
	}
	switch req.OnError {
	case "", "fail_fast":
	case "degrade":
		q.OnError = core.Degrade
	default:
		return q, badRequest("unknown on_error %q (want fail_fast or degrade)", req.OnError)
	}
	switch req.Sched {
	case "", "margin":
	case "static":
		q.Sched = core.SchedStatic
	default:
		return q, badRequest("unknown sched %q (want margin or static)", req.Sched)
	}
	q.ErrorBudget = req.ErrorBudget
	q.Trace = req.Trace
	return q, nil
}

// frontStats is a query's Stats as the front answers it: one key per
// core.Counters row (phase times in milliseconds), the per-LOD slices, the
// non-empty lists and the per-shard breakdown. The counters serialize even
// at zero: a scraper must be able to tell "zero failures" apart from "field
// absent in this version".
type frontStats core.Stats

// frontShard is one entry of the front's per-shard breakdown.
type frontShard struct {
	core.ShardStat
	ElapsedMS float64     `json:"elapsed_ms"`
	Stats     *frontStats `json:"stats,omitempty"`
}

// MarshalJSON implements json.Marshaler. AppendFloat's 'f' form is what
// encoding/json writes for any millisecond value of an int64 nanosecond
// count, so a phase time reads exactly as it did from a float64 field.
func (fs *frontStats) MarshalJSON() ([]byte, error) {
	st := (*core.Stats)(fs)
	shards := make([]frontShard, len(st.Shards))
	for i, ss := range st.Shards {
		shards[i] = frontShard{ss, float64(ss.Elapsed) / float64(time.Millisecond), (*frontStats)(ss.Stats)}
	}
	lists, err := json.Marshal(struct {
		Evaluated    []int64            `json:"pairs_evaluated_per_lod"`
		Pruned       []int64            `json:"pairs_pruned_per_lod"`
		Uncertain    []core.Pair        `json:"uncertain,omitempty"`
		UncertainIDs []int64            `json:"uncertain_ids,omitempty"`
		Degraded     []core.ObjectError `json:"degraded,omitempty"`
		Trace        []obs.TraceEvent   `json:"trace,omitempty"`
		Shards       []frontShard       `json:"shards,omitempty"`
	}{st.PairsEvaluated, st.PairsPruned, st.Uncertain, st.UncertainIDs, st.Degraded, st.Trace, shards})
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 512+len(lists))
	for _, c := range core.Counters {
		b = append(append(append(b, ",\""...), c.Name...), "\":"...)
		if c.Millis() {
			b = strconv.AppendFloat(b, c.Value(st), 'f', -1, 64)
		} else {
			b = strconv.AppendInt(b, *c.Field(st), 10)
		}
	}
	b[0] = '{'
	return append(append(b, ','), lists[1:]...), nil
}

// answer records an executed query and writes its answer under key, with
// its stats as the front encodes them, or its error.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, kind, key string, v any, stats *core.Stats, err error) {
	if stats != nil {
		s.noteQuery(r, kind, stats, err)
	}
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.writeJSON(w, map[string]any{key: v, "stats": (*frontStats)(stats)})
}

func (s *Server) handleIntersect(w http.ResponseWriter, r *http.Request) {
	target, source, q, req, err := s.parseJoin(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var pairs []core.Pair
	var stats *core.Stats
	if s.coord != nil {
		pairs, stats, err = s.coord.IntersectJoin(r.Context(), req.Target, req.Source, q)
	} else {
		pairs, stats, err = s.eng.IntersectJoin(r.Context(), target, source, q)
	}
	s.answer(w, r, "intersect", "pairs", pairs, stats, err)
}

func (s *Server) handleWithin(w http.ResponseWriter, r *http.Request) {
	target, source, q, req, err := s.parseJoin(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if req.Dist <= 0 {
		s.writeErr(w, r, badRequest("dist must be positive"))
		return
	}
	var pairs []core.Pair
	var stats *core.Stats
	if s.coord != nil {
		pairs, stats, err = s.coord.WithinJoin(r.Context(), req.Target, req.Source, req.Dist, q)
	} else {
		pairs, stats, err = s.eng.WithinJoin(r.Context(), target, source, req.Dist, q)
	}
	s.answer(w, r, "within", "pairs", pairs, stats, err)
}

func (s *Server) handleNN(w http.ResponseWriter, r *http.Request) {
	target, source, q, req, err := s.parseJoin(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var ns []core.Neighbor
	var stats *core.Stats
	if s.coord != nil {
		ns, stats, err = s.coord.KNNJoin(r.Context(), req.Target, req.Source, q)
	} else {
		ns, stats, err = s.eng.KNNJoin(r.Context(), target, source, q)
	}
	s.answer(w, r, "nn", "neighbors", ns, stats, err)
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	d, q, req, err := s.parseDataset(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	box := geom.Box3{
		Min: geom.V(req.Min[0], req.Min[1], req.Min[2]),
		Max: geom.V(req.Max[0], req.Max[1], req.Max[2]),
	}
	if box.IsEmpty() {
		s.writeErr(w, r, badRequest("empty query box"))
		return
	}
	var ids []int64
	var stats *core.Stats
	if s.coord != nil {
		ids, stats, err = s.coord.RangeQuery(r.Context(), req.Dataset, box, q)
	} else {
		ids, stats, err = s.eng.RangeQuery(r.Context(), d, box, q)
	}
	s.answer(w, r, "range", "objects", ids, stats, err)
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	d, q, req, err := s.parseDataset(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	p := geom.V(req.Point[0], req.Point[1], req.Point[2])
	var ids []int64
	var stats *core.Stats
	if s.coord != nil {
		ids, stats, err = s.coord.ContainingObjects(r.Context(), req.Dataset, p, q)
	} else {
		ids, stats, err = s.eng.ContainingObjects(r.Context(), d, p, q)
	}
	s.answer(w, r, "point", "objects", ids, stats, err)
}
