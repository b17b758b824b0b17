package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index/aabbtree"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
)

// serveTissue is serve-shard's tissue: two sets of 16 nuclei and 2 vessels,
// small enough that per-request cost (JSON, middleware, admission,
// scatter/gather, loans over the wire) outweighs geometry. Measured on the
// reference box: joins are 15 % of the ops and ≈ 75 % of the op time, but
// core.geom is under a third of it; a sharded join costs ≥ 2 ms however
// small its datasets, so no tissue brings joins under half.
var serveTissue = tissueSpec{nuclei: 16, vessels: 2, ringSegments: 8, pathPoints: 8}

// The op classes of serve-shard, indexes into serveClasses.
const (
	classPoint = iota
	classRange
	classObject
	classJoin
)

var (
	serveDatasets = []string{"nucleiT", "nucleiB", "vessels"}
	serveClasses  = []string{"point", "range", "object", "join"}
	// serveMix is the op classes of 20 consecutive ops: 10 point, 4 range,
	// 3 object fetches, 3 joins.
	serveMix = []int{
		classPoint, classPoint, classPoint, classPoint, classPoint, classPoint, classPoint, classPoint, classPoint, classPoint,
		classRange, classRange, classRange, classRange, classObject, classObject, classObject, classJoin, classJoin, classJoin,
	}
)

const (
	servePool    = 512 // distinct points, and distinct boxes
	serveMixes   = 20  // mixes per pass: a client's sequence is 400 ops
	serveZipf    = 1.1 // skew of every draw from a pool: duplicates are frequent
	serveWorkers = 2
	// serveNodeCache is each worker's decode-cache budget. Loaned objects are
	// cached under a fresh dataset per query, so any budget fills up; this
	// one fills within the warm-up, and peak RSS then does not depend on how
	// many ops the measured run completes.
	serveNodeCache = 8 << 20
)

// serveOp is one distinct request. Sequences point into the pools, so the
// oracle answers each distinct op once.
type serveOp struct {
	class        int
	method, path string
	body, traced []byte // JSON bodies without and with "trace": true
	want         answer
	dataset      string
	point        geom.Vec3
	box          geom.Box3
	id           int64
	lodFrac      float64 // object fetch: the LOD as a fraction of the object's ladder
	join         joinSpec
}

// serveShard is the production topology in one process: front handler →
// coordinator → HTTP transport → two loopback HTTP workers, replicated.
type serveShard struct {
	tissue tissue
	ops    []*serveOp   // every distinct op, for the oracle
	seq    [][]*serveOp // per client

	store   *store
	nodes   []*shard.Node
	workers []*loopback
	tr      *shard.HTTPTransport
	coord   *shard.Coordinator
	front   *httptest.Server
	client  *http.Client
	wire    wireCounter
}

func (w *serveShard) name() string      { return "serve-shard" }
func (w *serveShard) clients() int      { return min(runtime.NumCPU(), 4) }
func (w *serveShard) passLen() int      { return serveMixes * len(serveMix) }
func (w *serveShard) classes() []string { return serveClasses }

// generate draws the distinct ops around the canonical tissue from a fixed
// stream and places them with it, so that every seed has the same popular
// points, boxes, objects and joins at other coordinates and under other ids:
// Zipf(1.1) gives the most popular of twelve joins a third of all join ops,
// and with seed-drawn pools its identity alone moved ops_per_s by ±30 %. The
// order of the ops in a pass comes from the seed.
func (w *serveShard) generate(seed int64) string {
	pt := newTissue(serveTissue, seed)
	w.tissue = pt.meshes
	pool := rand.New(rand.NewSource(canonicalSeed + 5))
	type objRef struct {
		dataset string
		index   int
		box     geom.Box3
	}
	var objs []objRef
	for _, name := range serveDatasets {
		for i, m := range pt.canon[name] {
			objs = append(objs, objRef{name, i, m.Bounds()})
		}
	}
	pool.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })

	// Points sit near object centres (inside most nuclei, outside most
	// vessels); boxes are cubes of half-side 2–12 around such points.
	nearObject := func() (objRef, geom.Vec3) {
		o := objs[pool.Intn(len(objs))]
		half := o.box.Size().Mul(0.5)
		c := o.box.Center()
		return o, geom.V(c.X+(pool.Float64()-0.5)*half.X, c.Y+(pool.Float64()-0.5)*half.Y, c.Z+(pool.Float64()-0.5)*half.Z)
	}
	var points, boxes, fetches, joins []*serveOp
	for i := 0; i < servePool; i++ {
		o, p := nearObject()
		points = append(points, &serveOp{class: classPoint, method: "POST", path: "/query/point", dataset: o.dataset, point: pt.place.point(p)})
		o, c := nearObject()
		r := 2 + 10*pool.Float64()
		boxes = append(boxes, &serveOp{class: classRange, method: "POST", path: "/query/range", dataset: o.dataset,
			box: pt.place.box(geom.Box3{Min: c.Sub(geom.V(r, r, r)), Max: c.Add(geom.V(r, r, r))})})
	}
	for _, o := range objs {
		fetches = append(fetches, &serveOp{class: classObject, method: "GET", dataset: o.dataset, id: pt.ids[o.dataset][o.index], lodFrac: pool.Float64()})
	}
	for _, j := range []joinSpec{
		{kind: core.IntersectKind, target: "nucleiT", source: "nucleiB"},
		{kind: core.IntersectKind, target: "nucleiB", source: "nucleiT"},
		{kind: core.WithinKind, target: "nucleiT", source: "vessels", dist: 4},
		{kind: core.WithinKind, target: "nucleiT", source: "vessels", dist: 8},
		{kind: core.WithinKind, target: "nucleiT", source: "vessels", dist: 12},
		{kind: core.WithinKind, target: "vessels", source: "nucleiT", dist: 4},
		{kind: core.WithinKind, target: "vessels", source: "nucleiT", dist: 8},
		{kind: core.WithinKind, target: "vessels", source: "nucleiT", dist: 12},
		{kind: core.NNKind, target: "nucleiT", source: "vessels", k: 1},
		{kind: core.NNKind, target: "nucleiT", source: "vessels", k: 3},
		{kind: core.NNKind, target: "vessels", source: "nucleiT", k: 1},
		{kind: core.NNKind, target: "vessels", source: "nucleiT", k: 3},
	} {
		joins = append(joins, &serveOp{class: classJoin, method: "POST", join: j})
	}
	pool.Shuffle(len(joins), func(i, j int) { joins[i], joins[j] = joins[j], joins[i] })
	rng := rand.New(rand.NewSource(seed))
	pools := [][]*serveOp{points, boxes, fetches, joins}

	h := newInputHasher()
	h.tissue(w.tissue)
	w.ops = nil
	for _, pool := range pools {
		for _, op := range pool {
			op.encode()
			w.ops = append(w.ops, op)
			h.text(fmt.Sprintf("%s %s %s %.17g;", op.method, op.path, op.body, op.lodFrac))
		}
	}
	// A client's pass holds every pool entry as often as Zipf(1.1) over its
	// pool predicts for the pass's share of that class, to the nearest whole
	// count; the seed decides the order. Drawing each op independently
	// instead left ops_per_s and lat_p95_ms spread by 10–20 % across seeds,
	// because a pass has only 60 joins and their costs span 2–40 ms.
	w.seq = make([][]*serveOp, w.clients())
	for c := range w.seq {
		quota := make([][]int, len(pools))
		for class, pool := range pools {
			n := 0
			for _, k := range serveMix {
				if k == class {
					n += serveMixes
				}
			}
			quota[class] = zipfQuota(n, len(pool), serveZipf)
			rng.Shuffle(n, func(i, j int) { quota[class][i], quota[class][j] = quota[class][j], quota[class][i] })
		}
		for m := 0; m < serveMixes; m++ {
			for _, k := range rng.Perm(len(serveMix)) {
				class := serveMix[k]
				idx := quota[class][0]
				quota[class] = quota[class][1:]
				w.seq[c] = append(w.seq[c], pools[class][idx])
				h.text(fmt.Sprintf("%d:%d,", class, idx))
			}
		}
	}
	return h.sum()
}

// zipfQuota returns n indexes into a pool of m entries, entry k as often as
// its Zipf weight (1+k)^-s of n comes to, with the fractions left over going
// to the entries with the largest remainders.
func zipfQuota(n, m int, s float64) []int {
	weights := make([]float64, m)
	var total float64
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -s)
		total += weights[k]
	}
	counts := make([]int, m)
	order := make([]int, m)
	given := 0
	for k := range weights {
		weights[k] *= float64(n) / total
		counts[k] = int(weights[k])
		given += counts[k]
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool {
		return weights[order[i]]-float64(counts[order[i]]) > weights[order[j]]-float64(counts[order[j]])
	})
	for _, k := range order[:n-given] {
		counts[k]++
	}
	out := make([]int, 0, n)
	for k, c := range counts {
		for ; c > 0; c-- {
			out = append(out, k)
		}
	}
	return out
}

// encode builds the request path and JSON bodies of a query op. An object
// fetch's path needs the object's LOD count and is completed in prepare.
func (op *serveOp) encode() {
	body := map[string]any{}
	switch op.class {
	case classPoint:
		body["dataset"], body["point"] = op.dataset, [3]float64{op.point.X, op.point.Y, op.point.Z}
	case classRange:
		body["dataset"] = op.dataset
		body["min"] = [3]float64{op.box.Min.X, op.box.Min.Y, op.box.Min.Z}
		body["max"] = [3]float64{op.box.Max.X, op.box.Max.Y, op.box.Max.Z}
	case classObject:
		return
	case classJoin:
		body["target"], body["source"] = op.join.target, op.join.source
		switch op.join.kind {
		case core.IntersectKind:
			op.path = "/query/intersect"
		case core.WithinKind:
			op.path, body["dist"] = "/query/within", op.join.dist
		default:
			op.path, body["k"] = "/query/nn", op.join.k
		}
	}
	op.body, _ = json.Marshal(body) // a map of strings and numbers cannot fail to encode
	body["trace"] = true
	op.traced, _ = json.Marshal(body)
}

func quietServerConfig() server.Config {
	return server.Config{
		Logger: log.New(io.Discard, "", 0),
		Slog:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// loopback serves one handler on a loopback port until closed.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{
		srv:  &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // always returns ErrServerClosed after close
	}()
	return l, nil
}

func (l *loopback) close() {
	_ = l.srv.Close()
	<-l.done
}

// wireCounter counts the bytes crossing the worker listeners: the requests
// (with their loans) the coordinator ships and the answers coming back.
type wireCounter struct{ req, resp atomic.Int64 }

func (wc *wireCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.ContentLength > 0 {
			wc.req.Add(r.ContentLength)
		}
		h.ServeHTTP(&countingWriter{rw, &wc.resp}, r)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(b)
	cw.n.Add(int64(n))
	return n, err
}

func (w *serveShard) setUp(scratch string) (int64, int64, error) {
	var err error
	w.store, err = newStore(scratch, w.tissue, serveDatasets, datasetOptions(8))
	if err != nil {
		return 0, 0, err
	}
	urls := make([]string, serveWorkers)
	for i := range urls {
		node := shard.NewNode(i, core.EngineOptions{CacheBytes: serveNodeCache})
		w.nodes = append(w.nodes, node)
		lb, err := serveLoopback(w.wire.wrap(server.NewWorker(node, quietServerConfig()).Handler()))
		if err != nil {
			return 0, 0, err
		}
		w.workers = append(w.workers, lb)
		urls[i] = lb.url
	}
	w.tr = shard.NewHTTPTransport(urls)
	w.coord = shard.NewWithTransport(w.tr, shard.Options{Shards: serveWorkers, Replicas: 2})
	front := server.NewSharded(w.coord, quietServerConfig())
	for _, name := range serveDatasets {
		if err := front.AddDataset(w.store.loaded[name]); err != nil {
			return 0, 0, err
		}
	}
	w.front = httptest.NewServer(front.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients()}}
	return w.store.stored, w.store.raw, nil
}

func (w *serveShard) tearDown() {
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
	if w.front != nil {
		w.front.Close()
		w.front = nil
	}
	if w.coord != nil {
		w.coord.Close()
		w.tr.Close()
		w.coord, w.tr = nil, nil
	}
	for _, lb := range w.workers {
		lb.close()
	}
	for _, n := range w.nodes {
		n.Close()
	}
	w.workers, w.nodes = nil, nil
	if w.store != nil {
		w.store.close()
		w.store = nil
	}
}

// prepare answers every distinct op on the unsharded reference engine:
// points by a linear MBB scan and a ray cast, ranges and joins by the
// reference path, object fetches by decoding the stored object directly.
func (w *serveShard) prepare() error {
	ctx := context.Background()
	trees := map[*core.Dataset]map[int64]*aabbtree.Tree{}
	for _, op := range w.ops {
		d := w.store.built[op.dataset]
		var err error
		switch op.class {
		case classPoint:
			if trees[d] == nil {
				trees[d] = map[int64]*aabbtree.Tree{}
			}
			var ids []int64
			ids, err = containingScan(d, op.point, trees[d])
			op.want = sumIDs(ids)
		case classRange:
			var ids []int64
			ids, _, err = w.store.builder.RangeQuery(ctx, d, op.box, referenceOpts)
			op.want = sumIDs(ids)
		case classObject:
			comp := d.Tileset.Object(op.id).Comp
			lod := int(op.lodFrac * float64(comp.NumLODs()))
			op.path = fmt.Sprintf("/datasets/%s/objects/%d?lod=%d&format=ply", op.dataset, op.id, lod)
			m, derr := comp.Decode(lod)
			if derr != nil {
				return fmt.Errorf("reference %s: %w", op.path, derr)
			}
			var ply bytes.Buffer
			err = m.WritePLY(&ply)
			op.want = sumBytes(ply.Bytes())
		case classJoin:
			op.want, _, err = runJoin(w.store.builder, w.store.built, op.join, referenceFor(op.join))
		}
		if err != nil {
			return fmt.Errorf("reference %s %s %s: %w", op.method, op.path, op.body, err)
		}
	}
	return nil
}

// statsWire mirrors the stats object of the server's JSON answers.
type statsWire struct {
	ElapsedMS           float64          `json:"elapsed_ms"`
	FilterMS            float64          `json:"filter_ms"`
	DecodeMS            float64          `json:"decode_ms"`
	GeomMS              float64          `json:"geom_ms"`
	Candidates          int64            `json:"candidates"`
	Results             int64            `json:"results"`
	Decodes             int64            `json:"decodes"`
	CacheHits           int64            `json:"cache_hits"`
	WarmStarts          int64            `json:"warm_starts"`
	RoundsApplied       int64            `json:"rounds_applied"`
	RoundsSkipped       int64            `json:"rounds_skipped"`
	BatchesDispatched   int64            `json:"batches_dispatched"`
	BatchPairs          int64            `json:"batch_pairs"`
	LODsSkippedByMargin int64            `json:"lods_skipped_by_margin"`
	BoundsDecisive      int64            `json:"bounds_decisive"`
	Pruned              []int64          `json:"pairs_pruned_per_lod"`
	Trace               []obs.TraceEvent `json:"trace"`
	Shards              []struct {
		Shard     int        `json:"shard"`
		Status    string     `json:"status"`
		Attempts  int        `json:"attempts"`
		ElapsedMS float64    `json:"elapsed_ms"`
		Stats     *statsWire `json:"stats"`
	} `json:"shards"`
}

func fromMS(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// toCore rebuilds the engine statistics the answer serialised.
func (s *statsWire) toCore() *core.Stats {
	st := &core.Stats{
		Elapsed: fromMS(s.ElapsedMS), FilterTime: fromMS(s.FilterMS), DecodeTime: fromMS(s.DecodeMS), GeomTime: fromMS(s.GeomMS),
		Candidates: s.Candidates, Results: s.Results, Decodes: s.Decodes, CacheHits: s.CacheHits,
		WarmStarts: s.WarmStarts, RoundsApplied: s.RoundsApplied, RoundsSkipped: s.RoundsSkipped,
		BatchesDispatched: s.BatchesDispatched, BatchPairs: s.BatchPairs,
		LODsSkippedByMargin: s.LODsSkippedByMargin, BoundsDecisive: s.BoundsDecisive,
		PairsPruned: s.Pruned, Trace: s.Trace,
	}
	for _, leg := range s.Shards {
		ss := core.ShardStat{Shard: leg.Shard, Status: leg.Status, Attempts: leg.Attempts, Elapsed: fromMS(leg.ElapsedMS)}
		if leg.Stats != nil {
			ss.Stats = leg.Stats.toCore()
		}
		st.Shards = append(st.Shards, ss)
	}
	return st
}

func (w *serveShard) do(client, i int, tr *tracer, opSpan int) outcome {
	op := w.seq[client][i]
	out := outcome{class: op.class}
	body := op.body
	if tr != nil {
		body = op.traced
	}
	req, err := http.NewRequest(op.method, w.front.URL+op.path, bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	hc := tr.add("http.client", opSpan, t0, time.Since(t0))
	out.respBytes = int64(len(raw))
	switch {
	case err != nil:
		out.err = err
	case resp.StatusCode == http.StatusServiceUnavailable:
		out.rejected, out.err = true, fmt.Errorf("%s %s: refused with 503", op.method, op.path)
	case resp.StatusCode != http.StatusOK:
		out.err = fmt.Errorf("%s %s: status %d: %.200s", op.method, op.path, resp.StatusCode, raw)
	case op.class == classObject:
		out.err = sumBytes(raw).check(op.want)
	default:
		var ans struct {
			Pairs     []core.Pair     `json:"pairs"`
			Neighbors []core.Neighbor `json:"neighbors"`
			Objects   []int64         `json:"objects"`
			Stats     statsWire       `json:"stats"`
		}
		if err := json.Unmarshal(raw, &ans); err != nil {
			out.err = fmt.Errorf("%s %s: %w", op.method, op.path, err)
			return out
		}
		got := sumIDs(ans.Objects)
		if op.class == classJoin {
			got = sumPairs(ans.Pairs)
			if op.join.kind == core.NNKind {
				got = sumNeighbors(ans.Neighbors)
			}
		}
		out.err = got.check(op.want)
		out.stats = ans.Stats.toCore()
		tr.addQuery(hc, t0, out.stats)
	}
	return out
}

func (w *serveShard) layerCounters() counters {
	var c counters
	for _, n := range w.nodes {
		cs := n.Engine().Cache().Stats()
		c.evictions += cs.Evictions
		c.residentBytes += cs.BytesUsed
		c.decodeFailure += cs.DecodeFailures
	}
	m := w.coord.Metrics()
	c.retries, c.hedges, c.failovers, c.breakerOpens = m.Retries, m.Hedges, m.Failovers, m.OpenSkips
	for _, h := range w.coord.Health() {
		if h.State != "closed" {
			c.breakerOpens++
		}
	}
	c.wireReqBytes, c.wireRespBytes = w.wire.req.Load(), w.wire.resp.Load()
	return c
}

func (w *serveShard) probe(seed int64, scratch string, m map[string]float64) error {
	return probeLayers(seed, scratch, m, w.store.built["nucleiT"], w.store.built["nucleiB"], allMeshes(w.tissue, serveDatasets))
}
