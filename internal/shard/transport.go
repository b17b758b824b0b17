package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/storage"
)

// ErrTransport is the base error of transport-layer failures: the shard was
// unreachable, the link injected a fault, or the response failed its
// integrity check. Transport errors are transient by contract — the
// coordinator retries them; application errors from the engine are not
// wrapped and are never retried.
var ErrTransport = errors.New("shard: transport error")

// Transport delivers a request to one shard and returns its response. The
// in-process implementation calls the node directly, loans included by
// pointer; the HTTP implementation serializes the protocol types as JSON
// and sends loans as references the worker resolves to blobs it holds,
// shipping a blob only when the worker reports it missing.
//
// Send must honor ctx: the coordinator derives per-attempt deadlines from
// the request context and cancels the loser of a hedged pair.
type Transport interface {
	Send(ctx context.Context, shard int, req *Request) (*Response, error)
}

// InProc is the single-binary transport: shards are Nodes in the same
// process and requests are delivered by function call. Fault-injection
// points wrap both directions so chaos tests can sever or degrade the
// "link" of any shard without touching the engine underneath:
//
//	shard.send / shard.send.<i>  — before the request reaches shard i
//	shard.recv / shard.recv.<i>  — on shard i's response path; a corrupt
//	                               fault mangles the encoded response,
//	                               which the transport detects and reports
//	                               as a transport error (the wire-level
//	                               equivalent of a checksum mismatch)
//
// The unnumbered points fire for every shard; the numbered variants target
// one shard, which is how a chaos campaign kills shard 2 while its
// neighbors keep serving.
type InProc struct {
	nodes []*Node
}

// NewInProc builds the in-process transport over the given nodes.
func NewInProc(nodes []*Node) *InProc { return &InProc{nodes: nodes} }

// Send implements Transport.
func (t *InProc) Send(ctx context.Context, shard int, req *Request) (*Response, error) {
	if shard < 0 || shard >= len(t.nodes) {
		return nil, fmt.Errorf("%w: no shard %d", ErrTransport, shard)
	}
	for _, p := range []string{faultinject.PointShardSend, shardPoint(faultinject.PointShardSend, shard)} {
		if err := faultinject.Fire(p); err != nil {
			return nil, fmt.Errorf("%w: send to shard %d: %v", ErrTransport, shard, err)
		}
	}
	// A send-side sleep fault may have consumed the attempt budget.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := t.nodes[shard].Handle(ctx, req)
	if err != nil {
		return nil, err
	}
	return t.recv(shard, resp)
}

// recv passes the response through the receive-side fault points. The
// response is only encoded when a fault is armed — in production the whole
// function is two atomic loads.
func (t *InProc) recv(shard int, resp *Response) (*Response, error) {
	points := [2]string{faultinject.PointShardRecv, shardPoint(faultinject.PointShardRecv, shard)}
	armed := false
	for _, p := range points {
		if faultinject.Armed(p) {
			armed = true
			break
		}
	}
	if !armed {
		return resp, nil
	}
	enc, merr := json.Marshal(resp)
	if merr != nil {
		// Nothing to corrupt; fall back to error-style faults only.
		enc = nil
	}
	for _, p := range points {
		out, err := faultinject.FireData(p, enc)
		if err != nil {
			return nil, fmt.Errorf("%w: recv from shard %d: %v", ErrTransport, shard, err)
		}
		if !bytes.Equal(out, enc) {
			return nil, fmt.Errorf("%w: recv from shard %d: response failed integrity check", ErrTransport, shard)
		}
	}
	return resp, nil
}

// InstallDataset implements DatasetInstaller: the group's objects are
// assembled into a tileset and installed on the node by function call.
func (t *InProc) InstallDataset(ctx context.Context, shard int, name string, group int, grid storage.Grid, objs []*storage.Object) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if shard < 0 || shard >= len(t.nodes) {
		return fmt.Errorf("%w: no shard %d", ErrTransport, shard)
	}
	return t.nodes[shard].AddDataset(name, group, tilesetFor(grid, objs))
}

// CheckHealth implements HealthChecker. The in-process node is alive by
// construction, so health is the health of its "link": the send-side fault
// points decide, which is how chaos tests keep a killed shard failing its
// probes until the campaign revives it.
func (t *InProc) CheckHealth(ctx context.Context, shard int) error {
	if shard < 0 || shard >= len(t.nodes) {
		return fmt.Errorf("%w: no shard %d", ErrTransport, shard)
	}
	for _, p := range []string{faultinject.PointShardSend, shardPoint(faultinject.PointShardSend, shard)} {
		if err := faultinject.Fire(p); err != nil {
			return fmt.Errorf("%w: probe of shard %d: %v", ErrTransport, shard, err)
		}
	}
	return ctx.Err()
}

// tilesetFor rebuilds a by-ID tileset (nil holes included) from one group's
// object list.
func tilesetFor(grid storage.Grid, objs []*storage.Object) *storage.Tileset {
	var maxID int64 = -1
	for _, o := range objs {
		if o.ID > maxID {
			maxID = o.ID
		}
	}
	ts := &storage.Tileset{
		Grid:    grid,
		Objects: make([]*storage.Object, maxID+1),
		Tiles:   make(map[int][]*storage.Object),
	}
	for _, o := range objs {
		ts.Objects[o.ID] = o
		ts.Tiles[o.Cuboid] = append(ts.Tiles[o.Cuboid], o)
	}
	return ts
}

// shardPoint derives the shard-specific variant of a fault point.
func shardPoint(base string, shard int) string {
	return fmt.Sprintf("%s.%d", base, shard)
}
