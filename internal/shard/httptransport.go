package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/ppvp"
	"repro/internal/storage"
)

// The HTTP shard protocol. A worker process (3dpro-server -shard-worker)
// serves one Node over three routes:
//
//	POST /shard/query   — a wireRequest; answers a wireResponse whose body
//	                      carries a CRC32 integrity header
//	PUT  /shard/dataset — a wireInstall shipping one home group's objects
//	                      as compressed blobs
//	GET  /readyz        — liveness/readiness (also the prober's probe)
//
// Everything rides JSON: the protocol types are small, the payload bulk is
// the compressed blobs (of installs, and of loans a worker lacks), and Go's
// encoding base64s []byte fields — fine for the loopback/LAN deployments
// this tier targets.
const (
	queryPath   = "/shard/query"
	datasetPath = "/shard/dataset"
	readyPath   = "/readyz"

	// crcHeader carries the CRC32 (IEEE) of the response body in decimal.
	// The client recomputes over the received bytes; a mismatch is a
	// transport error.
	crcHeader = "X-Body-Crc32"
	// ridHeader propagates the coordinator-side request ID to workers so
	// one query's scatter legs correlate across process logs.
	ridHeader = "X-Request-Id"
)

// wireLoan is one source object. A query's loan is a reference, the ID and
// the blob's CRC-32, until the worker answers it missing; an install always
// carries the blob.
type wireLoan struct {
	ID     int64  `json:"id"`
	CRC    uint32 `json:"crc,omitempty"`
	Cuboid int    `json:"cuboid,omitempty"`
	Blob   []byte `json:"blob,omitempty"`
}

// wireRequest is the query envelope. Loans travel alongside the Request
// (whose own Loans field is json:"-" — object pointers don't serialize).
type wireRequest struct {
	Req   *Request   `json:"req"`
	Loans []wireLoan `json:"loans,omitempty"`
}

// wireResponse is the answer envelope. Resp and Stats are the leg's answer,
// its Stats in the leg form; Error carries an application error (engine
// failure) verbatim; Missing asks for the blobs of the loan refs the worker
// could not resolve. Transport-class failures never produce a wireResponse —
// they surface as connection errors, non-200 statuses, or integrity
// mismatches.
type wireResponse struct {
	Resp    *Response `json:"resp,omitempty"`
	Stats   *legStats `json:"stats,omitempty"`
	Error   string    `json:"error,omitempty"`
	Missing []int64   `json:"missing,omitempty"`
}

// legStats is a leg's Stats on the wire: C holds the core.Counters rows in
// table order as exact integers (phase times in nanoseconds), then come the
// per-LOD slices (null when nil: the front tells nil from empty) and the
// lists, left out when empty. A leg's Stats never carries Shards: the
// coordinator builds that breakdown.
type legStats struct {
	C            []int64            `json:"c"`
	Evaluated    []int64            `json:"e"`
	Pruned       []int64            `json:"p"`
	Uncertain    []core.Pair        `json:"u,omitempty"`
	UncertainIDs []int64            `json:"i,omitempty"`
	Degraded     []core.ObjectError `json:"d,omitempty"`
	Trace        []obs.TraceEvent   `json:"t,omitempty"`
}

func newLegStats(st *core.Stats) *legStats {
	l := &legStats{
		C:         make([]int64, len(core.Counters)),
		Evaluated: st.PairsEvaluated, Pruned: st.PairsPruned,
		Uncertain: st.Uncertain, UncertainIDs: st.UncertainIDs, Degraded: st.Degraded, Trace: st.Trace,
	}
	for i, c := range core.Counters {
		l.C[i] = *c.Field(st)
	}
	return l
}

// stats rebuilds the leg's Stats. The answer is input from another process,
// so a missing or wrong-length counter array is an error, never merged.
func (l *legStats) stats() (*core.Stats, error) {
	if l == nil || len(l.C) != len(core.Counters) {
		return nil, fmt.Errorf("leg stats carry no array of %d counters", len(core.Counters))
	}
	st := &core.Stats{
		PairsEvaluated: l.Evaluated, PairsPruned: l.Pruned,
		Uncertain: l.Uncertain, UncertainIDs: l.UncertainIDs, Degraded: l.Degraded, Trace: l.Trace,
	}
	for i, c := range core.Counters {
		*c.Field(st) = l.C[i]
	}
	return st, nil
}

// wireInstall ships one home group of a dataset to a worker.
type wireInstall struct {
	Name    string       `json:"name"`
	Group   int          `json:"group"`
	Grid    storage.Grid `json:"grid"`
	Objects []wireLoan   `json:"objects"`
}

// ridCtxKey carries the request ID a frontend attached for propagation to
// shard workers.
type ridCtxKey struct{}

// WithRequestID returns a context carrying the request ID the HTTP
// transport stamps on outgoing shard calls (ridHeader).
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ridCtxKey{}, id)
}

// requestIDFrom extracts the propagated request ID ("" if none).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ridCtxKey{}).(string)
	return id
}

// HTTPTransport implements Transport, DatasetInstaller, and HealthChecker
// over HTTP: shard i is the process listening at addrs[i]. Connections are
// pooled per worker and reused across attempts; per-attempt deadlines ride
// the request context (the coordinator derives them), so the transport
// itself sets no timeouts.
//
// Fault-injection points wrap every exchange — queries, installs and
// health probes — so chaos tests can sever or degrade the link of any
// worker without touching the engine behind it:
//
//	shard.net.send / shard.net.send.<i> — before the request is written
//	shard.net.recv / shard.net.recv.<i> — over the raw response body; a
//	                                      corrupt fault flips bytes, which
//	                                      the CRC check catches and reports
//	                                      as a transport error
//
// The unnumbered points fire for every shard; the numbered variants target
// one shard, which is how a chaos campaign kills worker 2 while its
// neighbors keep serving.
type HTTPTransport struct {
	addrs  []string
	client *http.Client
}

// NewHTTPTransport builds the transport over the worker base URLs
// (e.g. "http://127.0.0.1:7801"), indexed by shard.
func NewHTTPTransport(addrs []string) *HTTPTransport {
	return &HTTPTransport{
		addrs: addrs,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
}

// Close releases the pooled connections.
func (t *HTTPTransport) Close() { t.client.CloseIdleConnections() }

// Send implements Transport. Loans go out as references; a worker missing
// some of their blobs gets one resend, within the attempt, carrying those.
func (t *HTTPTransport) Send(ctx context.Context, shard int, req *Request) (*Response, error) {
	if shard < 0 || shard >= len(t.addrs) {
		return nil, fmt.Errorf("%w: no shard %d", ErrTransport, shard)
	}
	wreq := wireRequest{Req: req, Loans: make([]wireLoan, len(req.Loans))}
	for i, o := range req.Loans {
		wreq.Loans[i] = wireLoan{ID: o.ID, CRC: o.Comp.CRC()}
	}
	var wresp wireResponse
	for resent := false; ; resent = true {
		body, err := json.Marshal(wreq)
		if err != nil {
			return nil, fmt.Errorf("shard: encoding request for shard %d: %w", shard, err)
		}
		raw, err := t.roundTrip(ctx, shard, http.MethodPost, queryPath, body)
		if err != nil {
			return nil, err
		}
		wresp = wireResponse{}
		if err := json.Unmarshal(raw, &wresp); err != nil {
			return nil, fmt.Errorf("%w: shard %d: undecodable response: %v", ErrTransport, shard, err)
		}
		if len(wresp.Missing) == 0 {
			break
		}
		if resent {
			return nil, fmt.Errorf("%w: shard %d: loaned blobs %v still missing", ErrTransport, shard, wresp.Missing)
		}
		j := 0 // Missing is in ref order
		for i, o := range req.Loans {
			if j < len(wresp.Missing) && wresp.Missing[j] == o.ID {
				wreq.Loans[i].Cuboid, wreq.Loans[i].Blob = o.Cuboid, o.Comp.Bytes()
				j++
			}
		}
	}
	if wresp.Error != "" {
		// The worker ran the request and the engine failed: an application
		// error, never retried and never failed over.
		return nil, fmt.Errorf("shard %d: %s", shard, wresp.Error)
	}
	if wresp.Resp == nil {
		return nil, fmt.Errorf("%w: shard %d: empty response", ErrTransport, shard)
	}
	st, err := wresp.Stats.stats()
	if err != nil {
		return nil, fmt.Errorf("%w: shard %d: %v", ErrTransport, shard, err)
	}
	wresp.Resp.Stats = st
	return wresp.Resp, nil
}

// InstallDataset implements DatasetInstaller.
func (t *HTTPTransport) InstallDataset(ctx context.Context, shard int, name string, group int, grid storage.Grid, objs []*storage.Object) error {
	if shard < 0 || shard >= len(t.addrs) {
		return fmt.Errorf("%w: no shard %d", ErrTransport, shard)
	}
	inst := wireInstall{Name: name, Group: group, Grid: grid, Objects: make([]wireLoan, len(objs))}
	for i, o := range objs {
		inst.Objects[i] = wireLoan{ID: o.ID, Cuboid: o.Cuboid, Blob: o.Comp.Bytes()}
	}
	body, err := json.Marshal(inst)
	if err != nil {
		return fmt.Errorf("shard: encoding dataset %q for shard %d: %w", name, shard, err)
	}
	_, err = t.roundTrip(ctx, shard, http.MethodPut, datasetPath, body)
	return err
}

// CheckHealth implements HealthChecker: a healthy worker answers /readyz
// with 200. A draining or degraded worker answers 503, which keeps its
// breaker open until it is genuinely back. The probe is one exchange like
// any other, so the shard.net.send points fail it as they fail a query.
func (t *HTTPTransport) CheckHealth(ctx context.Context, shard int) error {
	if shard < 0 || shard >= len(t.addrs) {
		return fmt.Errorf("%w: no shard %d", ErrTransport, shard)
	}
	_, err := t.roundTrip(ctx, shard, http.MethodGet, readyPath, nil)
	return err
}

// roundTrip performs one HTTP exchange with a worker: network fault
// points, request-ID propagation, status mapping, and the body CRC check.
func (t *HTTPTransport) roundTrip(ctx context.Context, shard int, method, path string, body []byte) ([]byte, error) {
	for _, p := range []string{faultinject.PointShardNetSend, shardPoint(faultinject.PointShardNetSend, shard)} {
		if err := faultinject.Fire(p); err != nil {
			return nil, fmt.Errorf("%w: send to shard %d: %v", ErrTransport, shard, err)
		}
	}
	// A send-side delay fault may have consumed the attempt budget.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, method, t.addrs[shard]+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: shard %d: %v", ErrTransport, shard, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id := requestIDFrom(ctx); id != "" {
		req.Header.Set(ridHeader, id)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		// The context verdict (attempt timeout, hedge-loser cancellation,
		// query deadline) outranks the wrapped url.Error: the coordinator
		// classifies those, not the transport.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("%w: shard %d: %v", ErrTransport, shard, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("%w: shard %d: reading response: %v", ErrTransport, shard, err)
	}
	for _, p := range []string{faultinject.PointShardNetRecv, shardPoint(faultinject.PointShardNetRecv, shard)} {
		out, ferr := faultinject.FireData(p, raw)
		if ferr != nil {
			return nil, fmt.Errorf("%w: recv from shard %d: %v", ErrTransport, shard, ferr)
		}
		raw = out
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%w: shard %d: status %d: %s", ErrTransport, shard, resp.StatusCode, firstLine(string(raw)))
	}
	if h := resp.Header.Get(crcHeader); h != "" {
		want, perr := strconv.ParseUint(h, 10, 32)
		if perr != nil || uint32(want) != crc32.ChecksumIEEE(raw) {
			return nil, fmt.Errorf("%w: recv from shard %d: response failed integrity check", ErrTransport, shard)
		}
	}
	return raw, nil
}

// WorkerMux returns the HTTP routes of a shard worker serving node: the
// query and dataset-install endpoints of the shard protocol. Frontend
// concerns — body limits, panic recovery, request-ID logging, /readyz,
// graceful drain — belong to the server wrapper (internal/server.Worker).
func WorkerMux(node *Node) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc(queryPath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var wreq wireRequest
		if err := json.NewDecoder(r.Body).Decode(&wreq); err != nil || wreq.Req == nil {
			http.Error(w, "bad request body", http.StatusBadRequest)
			return
		}
		req := wreq.Req
		// A blob whose CRC is not its ref's was damaged on the way.
		var shipped []*storage.Object
		for _, l := range wreq.Loans {
			if len(l.Blob) == 0 {
				continue
			}
			comp, err := ppvp.FromBytes(l.Blob)
			if err == nil && comp.CRC() != l.CRC {
				err = errors.New("CRC mismatch")
			}
			if err != nil {
				http.Error(w, fmt.Sprintf("bad loan blob %d: %v", l.ID, err), http.StatusBadRequest)
				return
			}
			shipped = append(shipped, &storage.Object{ID: l.ID, Cuboid: l.Cuboid, Comp: comp})
		}
		var missing []int64
		if req.Loans, missing = node.resolveLoans(req.Source, wreq.Loans, shipped); len(missing) > 0 {
			writeWire(w, &wireResponse{Missing: missing})
			return
		}
		var wresp wireResponse
		resp, err := node.Handle(r.Context(), req)
		if err != nil {
			wresp.Error = err.Error()
		} else {
			wresp.Resp, wresp.Stats = resp, newLegStats(resp.Stats)
		}
		writeWire(w, &wresp)
	})
	mux.HandleFunc(datasetPath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			http.Error(w, "PUT only", http.StatusMethodNotAllowed)
			return
		}
		var inst wireInstall
		if err := json.NewDecoder(r.Body).Decode(&inst); err != nil || inst.Name == "" {
			http.Error(w, "bad install body", http.StatusBadRequest)
			return
		}
		objs := make([]*storage.Object, 0, len(inst.Objects))
		for _, l := range inst.Objects {
			comp, err := ppvp.FromBytes(l.Blob)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad object blob %d: %v", l.ID, err), http.StatusBadRequest)
				return
			}
			objs = append(objs, &storage.Object{ID: l.ID, Cuboid: l.Cuboid, Comp: comp})
		}
		if err := node.AddDataset(inst.Name, inst.Group, tilesetFor(inst.Grid, objs)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// writeWire encodes a wire response with its integrity header.
func writeWire(w http.ResponseWriter, wresp *wireResponse) {
	body, err := json.Marshal(wresp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(crcHeader, strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10))
	_, _ = w.Write(body)
}
