package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index/aabbtree"
)

// referenceOpts is the reference path every answer is checked against: the
// traditional filter-refine paradigm, one pair at a time, the paper's static
// schedule, every face pair evaluated — none of the progressive, pipelined,
// margin-scheduled or tree-accelerated code the measured ops run through.
var referenceOpts = core.QueryOptions{
	Paradigm: core.FR, Exec: core.ExecPerPair, Sched: core.SchedStatic, Accel: core.BruteForce,
}

// referenceFor returns the reference options for a join. Brute force over a
// vessel (≈1,200 faces × 320 × hundreds of candidates) or over the ≈1,000
// candidates of a nearest-neighbour join takes 4–13 s per join, more than a
// whole measured run, so those joins keep FR / per-pair / static but refine
// with AABB trees. The tree code is still cross-checked against brute force
// by the INT-NN and WN-NN cells, which run every accelerator.
func referenceFor(j joinSpec) core.QueryOptions {
	q := referenceOpts
	if j.kind == core.NNKind || j.source == "vessels" || j.target == "vessels" {
		q.Accel = core.AABB
	}
	q.K = j.k
	return q
}

// joinSpec is one join: the predicate, its datasets and its parameter.
type joinSpec struct {
	kind           core.QueryKind
	target, source string
	dist           float64 // WithinKind
	k              int     // NNKind
}

// answer is a verified op's sorted-result checksum and size.
type answer struct {
	sum uint64
	n   int
}

// runJoin executes the join on the engine and returns the checksum of its
// sorted answer.
func runJoin(eng *core.Engine, ds map[string]*core.Dataset, j joinSpec, q core.QueryOptions) (answer, *core.Stats, error) {
	ctx := context.Background()
	target, source := ds[j.target], ds[j.source]
	switch j.kind {
	case core.IntersectKind:
		pairs, st, err := eng.IntersectJoin(ctx, target, source, q)
		return sumPairs(pairs), st, err
	case core.WithinKind:
		pairs, st, err := eng.WithinJoin(ctx, target, source, j.dist, q)
		return sumPairs(pairs), st, err
	default:
		q.K = j.k
		ns, st, err := eng.KNNJoin(ctx, target, source, q)
		return sumNeighbors(ns), st, err
	}
}

// sumPairs checksums a pair set in (target, source) order.
func sumPairs(pairs []core.Pair) answer {
	sorted := slices.Clone(pairs)
	slices.SortFunc(sorted, func(a, b core.Pair) int {
		if a.Target != b.Target {
			return int(a.Target - b.Target)
		}
		return int(a.Source - b.Source)
	})
	h := fnv.New64a()
	var buf [16]byte
	for _, p := range sorted {
		binary.LittleEndian.PutUint64(buf[:8], uint64(p.Target))
		binary.LittleEndian.PutUint64(buf[8:], uint64(p.Source))
		h.Write(buf[:])
	}
	return answer{h.Sum64(), len(pairs)}
}

// sumNeighbors checksums neighbours in the order the engine defines (target,
// then rank). Distances are left out: two correct evaluation orders may
// differ in the last bit of a distance, never in who the neighbour is.
func sumNeighbors(ns []core.Neighbor) answer {
	h := fnv.New64a()
	var buf [16]byte
	for _, n := range ns {
		binary.LittleEndian.PutUint64(buf[:8], uint64(n.Target))
		binary.LittleEndian.PutUint64(buf[8:], uint64(n.Source))
		h.Write(buf[:])
	}
	return answer{h.Sum64(), len(ns)}
}

func sumIDs(ids []int64) answer {
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range sorted {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
	}
	return answer{h.Sum64(), len(ids)}
}

func sumBytes(b []byte) answer {
	h := fnv.New64a()
	h.Write(b)
	return answer{h.Sum64(), len(b)}
}

func (a answer) check(want answer) error {
	if a != want {
		return fmt.Errorf("answer %016x (%d results) differs from reference %016x (%d results)", a.sum, a.n, want.sum, want.n)
	}
	return nil
}

// containingScan is the point-query reference: a linear scan of the object
// MBBs, then a ray cast against the AABB tree of the fully decoded object.
// trees memoises the per-object trees across the points of one oracle pass.
func containingScan(d *core.Dataset, p geom.Vec3, trees map[int64]*aabbtree.Tree) ([]int64, error) {
	var ids []int64
	for _, o := range d.Tileset.Objects {
		if !o.MBB().ContainsPoint(p) {
			continue
		}
		tree, ok := trees[o.ID]
		if !ok {
			m, err := o.Comp.Decode(o.Comp.MaxLOD())
			if err != nil {
				return nil, err
			}
			tree = aabbtree.BuildSoA(m.SoA())
			trees[o.ID] = tree
		}
		if tree.ContainsPoint(p) {
			ids = append(ids, o.ID)
		}
	}
	return ids, nil
}
