package shard

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/storage"
)

// ErrTransport is the base error of transport-layer failures: the shard was
// unreachable, the link injected a fault, or the response failed its
// integrity check. Transport errors are transient by contract — the
// coordinator retries them; application errors from the engine are not
// wrapped and are never retried.
var ErrTransport = errors.New("shard: transport error")

// Transport delivers a request to one shard and returns its response.
// HTTPTransport, the production implementation, serializes the protocol
// types as JSON and sends loans as references the worker resolves to blobs
// it holds, shipping a blob only when the worker reports it missing; tests
// substitute fakes through this interface.
//
// Send must honor ctx: the coordinator derives per-attempt deadlines from
// the request context and cancels the loser of a hedged pair.
type Transport interface {
	Send(ctx context.Context, shard int, req *Request) (*Response, error)
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
