package shard

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// Node is one shard: an engine plus the home-group subsets of every
// dataset it replicates. A node only ever sees the objects of the groups
// placed on it and the per-query loans the coordinator names, which
// resolve to blobs it holds; it has no knowledge of the other shards.
// Under replication a node holds several groups of the same dataset (its
// primary group plus the replica groups that wrap onto it), kept separate
// so a request serves exactly one group's targets.
type Node struct {
	id  int
	eng *core.Engine

	mu       sync.RWMutex
	datasets map[string]map[int]*core.Dataset // name → group → home subset
	// lent holds blobs shipped with earlier queries: name → ID → object.
	// Installing the name drops them, so they stay within its blobs' size.
	lent map[string]map[int64]*storage.Object
}

// NewNode creates a shard node with its own engine (decode cache, GPU
// device, and object quarantine are all per-shard).
func NewNode(id int, opts core.EngineOptions) *Node {
	return &Node{id: id, eng: core.NewEngine(opts), datasets: make(map[string]map[int]*core.Dataset), lent: make(map[string]map[int64]*storage.Object)}
}

// Engine exposes the node's engine (for statistics and tests).
func (n *Node) Engine() *core.Engine { return n.eng }

// Close releases the node's engine resources.
func (n *Node) Close() { n.eng.Close() }

// AddDataset installs one home group's subset of a dataset; a nil or empty
// tileset removes the group, so queries naming it return empty results.
// Re-adding a (name, group) replaces the subset and drops the blobs lent
// under name, which may be the previous version's.
func (n *Node) AddDataset(name string, group int, ts *storage.Tileset) error {
	var d *core.Dataset
	if ts != nil && hasObjects(ts) {
		var err error
		if d, err = n.eng.AssembleDataset(name, ts); err != nil {
			return fmt.Errorf("shard %d: %w", n.id, err)
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.lent, name)
	if d == nil {
		delete(n.datasets[name], group)
		return nil
	}
	if n.datasets[name] == nil {
		n.datasets[name] = make(map[int]*core.Dataset)
	}
	n.datasets[name][group] = d
	return nil
}

func hasObjects(ts *storage.Tileset) bool {
	for _, o := range ts.Objects {
		if o != nil {
			return true
		}
	}
	return false
}

func (n *Node) dataset(name string, group int) *core.Dataset {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.datasets[name][group]
}

// Handle executes one request against the requested group's home objects.
// A join kind joins the group's home targets against one source set: the
// group's home sources plus the request's loans, which never contain a
// home object, so the set holds each source once. The context carries the
// per-attempt deadline the coordinator derived from the request context;
// the engine honors it.
func (n *Node) Handle(ctx context.Context, req *Request) (*Response, error) {
	start := time.Now()
	target := n.dataset(req.Target, req.Group)
	if target == nil {
		// No home objects of the target dataset: an empty, well-formed
		// answer (the coordinator marks such shards "skipped" when it can
		// tell in advance).
		return &Response{Stats: &core.Stats{Elapsed: time.Since(start)}}, nil
	}
	switch req.Kind {
	case KindRange:
		ids, st, err := n.eng.RangeQuery(ctx, target, req.Box, req.Opts)
		if err != nil {
			return nil, err
		}
		return &Response{IDs: ids, Stats: st}, nil
	case KindContains:
		ids, st, err := n.eng.ContainingObjects(ctx, target, req.Point, req.Opts)
		if err != nil {
			return nil, err
		}
		return &Response{IDs: ids, Stats: st}, nil
	case KindIntersect, KindWithin, KindKNN:
		return n.handleJoin(ctx, target, req, start)
	default:
		return nil, fmt.Errorf("shard %d: unknown request kind %q", n.id, req.Kind)
	}
}

// handleJoin makes one engine join of the group's home targets against its
// home sources and the loans, indexed together as one dataset under the
// source's name. The coordinator's loans hold every non-home source that
// can pair with a home target (every kNN candidate included), so the join
// gives the whole-dataset answer for these targets and counts what the
// single engine counts for them. Object IDs are global and nothing is
// parsed or decoded here: the join's decodes hit the cache entries of the
// blobs themselves, and a self-join still skips each target, whose own
// *storage.Object is in the list.
func (n *Node) handleJoin(ctx context.Context, target *core.Dataset, req *Request, start time.Time) (*Response, error) {
	objs := slices.Clone(req.Loans)
	if home := n.dataset(req.Source, req.Group); home != nil {
		for _, o := range home.Tileset.Objects {
			if o != nil {
				objs = append(objs, o)
			}
		}
	}
	resp := &Response{Stats: &core.Stats{}}
	if len(objs) > 0 {
		src, err := n.eng.AssembleDataset(req.Source, tilesetFor(storage.Grid{}, objs))
		if err != nil {
			return nil, err
		}
		switch req.Kind {
		case KindIntersect:
			resp.Pairs, resp.Stats, err = n.eng.IntersectJoin(ctx, target, src, req.Opts)
		case KindWithin:
			resp.Pairs, resp.Stats, err = n.eng.WithinJoin(ctx, target, src, req.Dist, req.Opts)
		case KindKNN:
			resp.Neighbors, resp.Stats, err = n.eng.KNNJoin(ctx, target, src, req.Opts)
		}
		if err != nil {
			return nil, err
		}
	}
	resp.Stats.Elapsed = time.Since(start)
	return resp, nil
}

// resolveLoans lends the node the blobs shipped with a request over source,
// then maps the request's loan refs to objects it holds — an installed
// group's, else a lent one, only ever with the ref's CRC — and returns the
// IDs it cannot resolve, in ref order.
func (n *Node) resolveLoans(source string, refs []wireLoan, shipped []*storage.Object) (objs []*storage.Object, missing []int64) {
	if len(shipped) > 0 {
		n.mu.Lock()
		if n.lent[source] == nil {
			n.lent[source] = make(map[int64]*storage.Object)
		}
		for _, o := range shipped {
			n.lent[source][o.ID] = o
		}
		n.mu.Unlock()
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, r := range refs {
		o := n.lent[source][r.ID]
		for _, d := range n.datasets[source] {
			if h := d.Tileset.Object(r.ID); h != nil && h.Comp.CRC() == r.CRC {
				o = h
			}
		}
		if o != nil && o.Comp.CRC() == r.CRC {
			objs = append(objs, o)
		} else {
			missing = append(missing, r.ID)
		}
	}
	return objs, missing
}
