package core

import (
	"context"
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
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	col := newCollector(d.maxLOD, q, start)
	ec := newEvalCtx(e, q, col)
	lods := q.lodSchedule(d.maxLOD, q.Paradigm)

	// Filtering: only objects whose MBB covers p can contain it.
	var cands []int64
	col.filterPhase(func() {
		d.tree.SearchIntersect(geom.BoxOf(p), func(ent rtree.Entry) bool {
			cands = append(cands, ent.ID)
			return true
		})
	})
	col.n[rowCandidates].Add(int64(len(cands)))
	sortIDs(cands)

	var out []int64
	remaining := cands
	for li, lod := range lods {
		if len(remaining) == 0 {
			break
		}
		last := li == len(lods)-1
		next := remaining[:0]
		for _, id := range remaining {
			// Unlike the join paths, this loop does not run under
			// runPerTarget, so it must observe the query deadline itself.
			if err := ctx.Err(); err != nil {
				return nil, ec.finish(start), err
			}
			o, err := ec.decode(d, id, lod)
			if err != nil {
				// Single-threaded path: worker slot 0 owns the degrade
				// buffers.
				skip, aerr := ec.degradeErr(0, d, id, err)
				if !skip {
					return nil, ec.finish(start), aerr
				}
				ec.deg.uncertainID(id)
				continue
			}
			col.evalPair(lod)
			inside := ec.pointInside(o, p)
			if inside {
				// Subset property: inside a low LOD ⇒ inside the object.
				col.settlePair(lod)
				out = append(out, id)
				col.n[rowResults].Add(1)
				continue
			}
			if last {
				col.settlePair(lod)
				continue
			}
			next = append(next, id)
		}
		remaining = next
	}
	slices.Sort(out)
	return out, ec.finish(start), nil
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

// RangeQuery returns the IDs of every object of d whose geometry intersects
// the axis-aligned query box (surface touching or containment in either
// direction counts).
//
// Progressive refinement applies through the intersection property: a
// low-LOD face intersecting the box settles the candidate immediately.
// Candidates whose surface never meets the box are resolved at the highest
// LOD: the object may contain the box, or — when the object's MBB lies
// inside the box — be wholly contained by it.
func (e *Engine) RangeQuery(ctx context.Context, d *Dataset, box geom.Box3, q QueryOptions) ([]int64, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	col := newCollector(d.maxLOD, q, start)
	ec := newEvalCtx(e, q, col)
	lods := q.lodSchedule(d.maxLOD, q.Paradigm)

	var cands []int64
	var definite []int64
	col.filterPhase(func() {
		d.tree.SearchIntersect(box, func(ent rtree.Entry) bool {
			if box.Contains(ent.Box) {
				// The whole MBB (hence the object) is inside the box.
				definite = append(definite, ent.ID)
			} else {
				cands = append(cands, ent.ID)
			}
			return true
		})
	})
	col.n[rowCandidates].Add(int64(len(cands) + len(definite)))
	out := append([]int64(nil), definite...)
	col.n[rowResults].Add(int64(len(definite)))
	sortIDs(cands)

	boxTris := boxTriangles(box)
	remaining := cands
	for li, lod := range lods {
		if len(remaining) == 0 {
			break
		}
		last := li == len(lods)-1
		next := remaining[:0]
		for _, id := range remaining {
			// Not under runPerTarget: observe the query deadline here.
			if err := ctx.Err(); err != nil {
				return nil, ec.finish(start), err
			}
			o, err := ec.decode(d, id, lod)
			if err != nil {
				skip, aerr := ec.degradeErr(0, d, id, err)
				if !skip {
					return nil, ec.finish(start), aerr
				}
				ec.deg.uncertainID(id)
				continue
			}
			col.evalPair(lod)
			hit := func() bool {
				defer col.geomDone(lod, time.Now())
				for i := range o.mesh.Faces {
					tri := o.mesh.Triangle(i)
					if !tri.Bounds().Intersects(box) {
						continue
					}
					for _, bt := range boxTris {
						if geom.TriTriIntersect(tri, bt) {
							return true
						}
					}
					// A face whose bounds intersect the box without touching
					// its surface can still be inside the box entirely.
					if box.ContainsPoint(tri.A) {
						return true
					}
				}
				return false
			}()
			if hit {
				col.settlePair(lod)
				out = append(out, id)
				col.n[rowResults].Add(1)
				continue
			}
			if last {
				// No surface contact at full resolution: the object might
				// still contain the whole box.
				if ec.pointInside(o, box.Center()) {
					out = append(out, id)
					col.n[rowResults].Add(1)
				}
				col.settlePair(lod)
				continue
			}
			next = append(next, id)
		}
		remaining = next
	}
	slices.Sort(out)
	return out, ec.finish(start), nil
}

// boxTriangles triangulates the six faces of a box (12 triangles).
func boxTriangles(b geom.Box3) []geom.Triangle {
	c := func(i int) geom.Vec3 { return b.Corner(i) }
	quads := [][4]int{
		{0, 2, 3, 1}, // z = min
		{4, 5, 7, 6}, // z = max
		{0, 1, 5, 4}, // y = min
		{2, 6, 7, 3}, // y = max
		{0, 4, 6, 2}, // x = min
		{1, 3, 7, 5}, // x = max
	}
	tris := make([]geom.Triangle, 0, 12)
	for _, q := range quads {
		tris = append(tris,
			geom.Tri(c(q[0]), c(q[1]), c(q[2])),
			geom.Tri(c(q[0]), c(q[2]), c(q[3])),
		)
	}
	return tris
}
