package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/index/rtree"
)

// ContainingObjects returns the IDs of every object of d whose interior
// contains the point p.
//
// This is the point-containment primitive the paper's §4.1 notes can also
// be accelerated by the Filter-Progressive-Refine paradigm: because every
// PPVP LOD is a subset of the next, a point found inside a *low* LOD is
// certainly inside the object, so candidates settle positively without
// decoding further. Only points outside every intermediate LOD must be
// checked at full resolution.
func (e *Engine) ContainingObjects(ctx context.Context, d *Dataset, p geom.Vec3, q QueryOptions) ([]int64, *Stats, error) {
	return e.probe(ctx, d, geom.BoxOf(p), q, nil, func(c *evalCtx, o obj, _ bool) bool {
		return c.pointInside(o, p)
	})
}

// RangeQuery returns the IDs of every object of d whose geometry intersects
// the axis-aligned query box (surface touching or containment in either
// direction counts).
//
// Progressive refinement applies through the intersection property: a
// low-LOD face meeting the box settles the candidate immediately. An
// object whose MBB lies inside the box is accepted by the filter alone.
// Candidates whose surface never meets the box are resolved at the highest
// LOD, where the object may still contain the whole box.
func (e *Engine) RangeQuery(ctx context.Context, d *Dataset, box geom.Box3, q QueryOptions) ([]int64, *Stats, error) {
	faces := boxSoA(box)
	return e.probe(ctx, d, box, q, box.Contains, func(c *evalCtx, o obj, top bool) bool {
		return c.touchesBox(o, box, faces) || top && c.pointInside(o, box.Center())
	})
}

// probeHit is a probe query's per-LOD test of one decoded candidate; top
// says o is at the schedule's last LOD. A hit settles the candidate as a
// result at any LOD (the PPVP subset and intersection properties), a miss
// settles it only at the top.
type probeHit func(c *evalCtx, o obj, top bool) bool

// probe is the Filter-Progressive-Refine ladder of the single-dataset
// queries. The filter keeps the objects whose MBB meets box; those whose
// MBB alone decides (definite, when non-nil) are results outright, and the
// rest climb the LOD schedule under hit. It runs on the calling goroutine,
// so it observes the query deadline itself and routes failures through
// worker slot 0's degrade buffers.
func (e *Engine) probe(ctx context.Context, d *Dataset, box geom.Box3, q QueryOptions, definite func(geom.Box3) bool, hit probeHit) ([]int64, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	col := newCollector(d.maxLOD, q, start)
	ec := newEvalCtx(e, q, col)
	lods := q.lodSchedule(d.maxLOD, q.Paradigm)

	var cands, out []int64
	col.filterPhase(func() {
		d.tree.SearchIntersect(box, func(ent rtree.Entry) bool {
			if definite != nil && definite(ent.Box) {
				out = append(out, ent.ID)
			} else {
				cands = append(cands, ent.ID)
			}
			return true
		})
	})
	col.n[rowCandidates].Add(int64(len(cands) + len(out)))
	col.n[rowResults].Add(int64(len(out)))
	slices.Sort(cands)

	remaining := cands
	for li, lod := range lods {
		if len(remaining) == 0 {
			break
		}
		top := li == len(lods)-1
		next := remaining[:0]
		for _, id := range remaining {
			if err := ctx.Err(); err != nil {
				return nil, ec.finish(start), err
			}
			in, err := ec.probeStep(d, id, lod, top, hit)
			if err != nil {
				skip, aerr := ec.degradeErr(0, d, id, err)
				if !skip {
					return nil, ec.finish(start), aerr
				}
				ec.deg.uncertainID(id)
				continue
			}
			switch {
			case in:
				col.settlePair(lod)
				out = append(out, id)
				col.n[rowResults].Add(1)
			case top:
				col.settlePair(lod)
			default:
				next = append(next, id)
			}
		}
		remaining = next
	}
	slices.Sort(out)
	return out, ec.finish(start), nil
}

// probeStep decodes candidate id at lod and runs hit on it. A panic out of
// either (a FailFast decode panic, an evaluator blowing up) comes back as
// an error naming the object, as in the joins' walk.
func (c *evalCtx) probeStep(d *Dataset, id int64, lod int, top bool, hit probeHit) (in bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: worker panic on object %d: %v", id, r)
		}
	}()
	o, err := c.decode(d, id, lod)
	if err != nil {
		return false, err
	}
	c.col.evalPair(lod)
	return hit(c, o, top), nil
}

// pointInside tests point containment against a decoded object, with the
// AABB accelerator when selected.
func (c *evalCtx) pointInside(o obj, p geom.Vec3) bool {
	defer c.col.geomDone(o.lod, time.Now())
	if c.opts.Accel == AABB {
		return c.tree(o).ContainsPoint(p)
	}
	if !o.mesh.Bounds().ContainsPoint(p) {
		return false
	}
	return geom.PointInSoA(p, o.mesh.SoA())
}

// touchesBox reports whether the surface of o meets box, whose faces are
// packed in faces: some face of o crosses a face of the box, or lies inside
// it. Every accelerator runs the batch kernel here.
func (c *evalCtx) touchesBox(o obj, box geom.Box3, faces *geom.TriSoA) bool {
	defer c.col.geomDone(o.lod, time.Now())
	s := o.mesh.SoA()
	if geom.IntersectsBatch(s, faces) {
		return true
	}
	for i := range s.AX {
		if box.ContainsPoint(geom.Vec3{X: s.AX[i], Y: s.AY[i], Z: s.AZ[i]}) {
			return true
		}
	}
	return false
}

// boxSoA packs the six faces of a box as 12 triangles.
func boxSoA(b geom.Box3) *geom.TriSoA {
	quads := [6][4]int{
		{0, 2, 3, 1}, // z = min
		{4, 5, 7, 6}, // z = max
		{0, 1, 5, 4}, // y = min
		{2, 6, 7, 3}, // y = max
		{0, 4, 6, 2}, // x = min
		{1, 3, 7, 5}, // x = max
	}
	s := geom.NewTriSoA(2 * len(quads))
	for i, q := range quads {
		s.Set(2*i, b.Corner(q[0]), b.Corner(q[1]), b.Corner(q[2]))
		s.Set(2*i+1, b.Corner(q[0]), b.Corner(q[2]), b.Corner(q[3]))
	}
	return s
}
