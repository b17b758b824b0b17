package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/index/aabbtree"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/storage"
)

// evalCtx is the per-join geometry computer: it decodes objects through the
// engine cache and dispatches the pairwise evaluations to the selected
// accelerator. The accelerator structures themselves (AABB-trees, partition
// groups) are not the query's: they are memoized on the decoded mesh, so
// they live and die with its cache entry and every query, worker and shard
// leg that hits the entry shares one build.
type evalCtx struct {
	e    *Engine
	opts QueryOptions
	col  *collector

	// scratch holds per-worker filter buffers, indexed by the worker slot
	// runPerTarget hands to each callback; no locking needed. The degrader
	// and the joins' result sink size their per-slot buffers the same way.
	scratch []filterScratch

	// deg collects per-object failures when the query runs under the
	// Degrade error policy; nil under FailFast.
	deg *degrader
}

// filterScratch is one worker's reusable filter-step state: the dedup set
// and the candidate ID buffer that would otherwise be allocated per target
// object.
type filterScratch struct {
	seen map[int64]struct{}
	ids  []int64
	def  []int64
	// maxd is the kNN refinement's MAXDIST sort buffer (see kthOver in
	// nearest); reused across targets so the k-th-distance computation
	// doesn't allocate per call.
	maxd []float64
	// nn and nnp back the KNN filter's merged candidates (nnCands).
	nn  []nnCand
	nnp []*nnCand
}

// addNew appends id to ids unless the target's filter has already seen it.
func (f *filterScratch) addNew(ids []int64, id int64) []int64 {
	if _, dup := f.seen[id]; dup {
		return ids
	}
	f.seen[id] = struct{}{}
	return append(ids, id)
}

// reset clears the scratch for the next target and returns it.
func (f *filterScratch) reset() *filterScratch {
	if f.seen == nil {
		f.seen = make(map[int64]struct{}, 32)
	} else {
		clear(f.seen)
	}
	f.ids = f.ids[:0]
	f.def = f.def[:0]
	return f
}

func newEvalCtx(e *Engine, opts QueryOptions, col *collector) *evalCtx {
	workers := opts.workers(e)
	c := &evalCtx{
		e:       e,
		opts:    opts,
		col:     col,
		scratch: make([]filterScratch, workers),
	}
	if opts.OnError == Degrade {
		c.deg = newDegrader(workers, opts.ErrorBudget)
	}
	return c
}

// obj identifies one object of one dataset at one LOD, with its decoded
// mesh attached.
type obj struct {
	ds   *Dataset
	id   int64
	lod  int
	mesh *mesh.Mesh
}

// decode fetches the mesh of (ds, id) at lod through the engine cache,
// accounting decode time and cache hits. Misses resume from decoded
// geometry the cache holds at a lower LOD (the cache's warm-start
// protocol), so an FPR candidate walking the LOD ladder replays each decode
// round at most once.
//
// Decodes are gated by the engine's quarantine breaker, keyed by blob: an
// object whose blob's breaker is open is refused with ErrQuarantined, in
// every dataset holding it, and every outcome (success, error, panic) is
// reported back so repeat offenders trip open.
// Under the Degrade error policy, transient failures are retried with
// backoff and decode panics are converted to per-object errors; under
// FailFast both propagate unchanged, preserving strict fault semantics.
func (c *evalCtx) decode(ds *Dataset, id int64, lod int) (obj, error) {
	sto := ds.Tileset.Object(id)
	if sto == nil {
		// A hole left by salvage loading (listed in Dataset.Salvage): there
		// is no blob to decode or to quarantine.
		return obj{}, fmt.Errorf("core: object %d of %q is not loaded: %w", id, ds.Name, ErrQuarantined)
	}
	qk := sto.Comp.ID()
	if !c.e.quar.Allow(qk) {
		c.col.n[rowQuarantineSkips].Add(1)
		return obj{}, fmt.Errorf("core: object %d of %q skipped: %w", id, ds.Name, ErrQuarantined)
	}
	o, err := c.decodeGuarded(ds, sto, id, lod, qk)
	if err != nil {
		return obj{}, fmt.Errorf("core: decoding object %d of %q at LOD %d: %w", id, ds.Name, lod, err)
	}
	return o, nil
}

// Degrade-policy queries make decodeRetries extra decode attempts per
// object, decodeRetryBackoff apart, before recording the failure. FailFast
// queries never retry: their fault contract is "first failure aborts".
const (
	decodeRetries      = 1
	decodeRetryBackoff = time.Millisecond
)

// decodeGuarded runs the decode attempts for one admitted object and settles
// its breaker verdict. Exactly one of Success/Failure/Release reaches the
// breaker: success and exhausted retries settle the breaker; a context
// expiry mid-attempt charges nothing but frees any half-open probe; a panic
// under FailFast records the failure before resuming the unwind (the cache
// has already cleaned its own state by re-panicking).
func (c *evalCtx) decodeGuarded(ds *Dataset, sto *storage.Object, id int64, lod int, qk int64) (o obj, err error) {
	settled := false
	defer func() {
		if settled {
			return
		}
		if r := recover(); r != nil {
			c.e.quar.Failure(qk, firstLine(fmt.Sprint(r)))
			panic(r)
		}
		c.e.quar.Release(qk)
	}()

	attempts := 1
	if c.deg != nil {
		attempts += decodeRetries
	}
	for try := 0; ; try++ {
		var m *mesh.Mesh
		m, err = c.decodeOnce(sto, lod)
		if err == nil {
			settled = true
			c.e.quar.Success(qk)
			return obj{ds: ds, id: id, lod: lod, mesh: m}, nil
		}
		if isCtxErr(err) {
			return obj{}, err
		}
		if try+1 >= attempts {
			break
		}
		c.col.n[rowDecodeRetries].Add(1)
		time.Sleep(decodeRetryBackoff)
	}
	settled = true
	c.e.quar.Failure(qk, firstLine(err.Error()))
	return obj{}, err
}

// decodeOnce is a single decode attempt through the engine cache, keyed by
// blob (ppvp.Compressed.ID): datasets holding the same object share its
// decodes, warm point and accelerators. Under Degrade, a panic out of the
// decoder (or the cache's re-panic after its own cleanup) is converted into
// an error so the attempt can be retried or the object skipped; under
// FailFast panics propagate to the caller's recovery, which names the object.
func (c *evalCtx) decodeOnce(sto *storage.Object, lod int) (m *mesh.Mesh, err error) {
	if c.deg != nil {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("decode panic: %v", r)
			}
		}()
	}
	key := cache.Key{Object: sto.Comp.ID(), LOD: lod}
	missed := false
	t0 := time.Now()
	m, err = c.e.cache.GetOrDecodeProgressiveCounted(key, sto.Comp, func() error {
		missed = true
		c.col.n[rowDecodes].Add(1)
		return faultinject.Fire(faultinject.PointCoreDecode)
	}, &c.col.cacheCtrs)
	if err != nil {
		return nil, err
	}
	if missed {
		c.col.decodeMiss(lod, t0)
	} else {
		c.col.cacheHit(lod)
	}
	return m, nil
}

// finish snapshots the query's statistics, folding in the degrade
// bookkeeping. Both the success path and every abort path (context expiry,
// exhausted error budget) go through it, so even a failed query hands back
// its phase times and exact cache attribution.
func (c *evalCtx) finish(start time.Time) *Stats {
	st := c.col.snapshot(time.Since(start))
	c.deg.fill(st)
	return st
}

// tree returns the AABB-tree of an object at a LOD: the decoded mesh's own
// memo, built by whichever query asks first.
func (c *evalCtx) tree(o obj) *aabbtree.Tree {
	t, built := o.mesh.Tree()
	c.col.accel(built)
	return t
}

// groupsOf returns the partition groups of an object at a LOD: decoded
// faces assigned to the object's ingest-time skeleton points. Objects
// without a skeleton form a single group. Like tree, this is the mesh's
// memo, cached per blob, so every dataset holding the blob must supply the
// same skeleton: only AssembleDataset shares blobs, and it never has
// skeletons; BuildDataset and LoadDataset construct blobs of their own.
// (A violation costs speed, not answers: any face partition is exact.)
func (c *evalCtx) groupsOf(o obj) []mesh.Group {
	g, built := o.mesh.Groups(func() [][]int32 {
		var skel []geom.Vec3
		if o.ds.skeletons != nil && o.id >= 0 && o.id < int64(len(o.ds.skeletons)) {
			skel = o.ds.skeletons[o.id]
		}
		if len(skel) <= 1 {
			return nil
		}
		pgs := partition.AssignFaces(o.mesh, skel)
		parts := make([][]int32, len(pgs))
		for i := range pgs {
			parts[i] = pgs[i].Faces
		}
		return parts
	})
	c.col.accel(built)
	return g.List
}

// intersects reports whether the two decoded objects' surfaces intersect
// (shared faces touching counts), using the configured accelerator.
func (c *evalCtx) intersects(a, b obj) bool {
	defer c.col.geomDone(a.lod, time.Now())

	switch c.opts.Accel {
	case AABB:
		return c.tree(a).IntersectsTree(c.tree(b))
	case GPU:
		return c.e.dev.Intersects(a.mesh.SoA(), b.mesh.SoA())
	case Partition, PartitionGPU:
		return c.intersectsPartitioned(a, b)
	default:
		return geom.IntersectsBatch(a.mesh.SoA(), b.mesh.SoA())
	}
}

func (c *evalCtx) intersectsPartitioned(a, b obj) bool {
	ga, gb := c.groupsOf(a), c.groupsOf(b)
	for i := range ga {
		for j := range gb {
			if !ga[i].Box.Intersects(gb[j].Box) {
				continue
			}
			if c.opts.Accel == PartitionGPU {
				if c.e.dev.Intersects(&ga[i].Tris, &gb[j].Tris) {
					return true
				}
			} else if geom.IntersectsBatch(&ga[i].Tris, &gb[j].Tris) {
				return true
			}
		}
	}
	return false
}

// minDist returns the distance between the two decoded objects' surfaces
// when it is ≤ upper, and +Inf — "greater than upper", under every
// accelerator — when it is not: the search is then cut short and nothing
// else is known. Pass math.Inf(1) for an exact distance.
//
// upper is squared once, by bound2, and every accelerator is seeded with
// that same squared bound: it gates the tree descent or the group pairs,
// then the block pairs, blocks and pairs of geom.MinDist2BatchRange, then
// the stages of the one bounded tri-tri primitive underneath them all. A
// distance that is found is therefore the value geom.TriTriDist2 gives for
// the nearest face pair, bit-identical across accelerators — unless it is
// ≤ stop2, where every accelerator may stop early on a face pair that is
// not the nearest (see withinStop2). A distance that is reported passes 0.
func (c *evalCtx) minDist(a, b obj, upper, stop2 float64) float64 {
	defer c.col.geomDone(a.lod, time.Now())

	up2 := bound2(upper)
	var d2 float64
	switch c.opts.Accel {
	case AABB:
		d2 = c.tree(a).MinDist2Bounded(c.tree(b), up2, stop2)
	case GPU:
		d2 = c.e.dev.MinDist2Bounded(a.mesh.SoA(), b.mesh.SoA(), up2, stop2)
	case Partition, PartitionGPU:
		d2 = c.minDist2Partitioned(a, b, up2, stop2)
	default:
		sa, sb := a.mesh.SoA(), b.mesh.SoA()
		d2 = geom.MinDist2BatchRange(sa, sb, 0, sa.Len()*sb.Len(), up2, stop2)
	}
	return plainDist(d2, up2)
}

// plainDist converts a bounded kernel's answer — the squared distance, or
// the untouched seed upper2 when no face pair beat it — to minDist's form:
// the plain distance, +Inf standing for "greater than the bound".
func plainDist(d2, upper2 float64) float64 {
	if d2 >= upper2 {
		return math.Inf(1)
	}
	return math.Sqrt(d2)
}

// withinStop2 is the stop bound of a within evaluation against dist, fl(dist²):
// a face pair with d² ≤ fl(dist²) has sqrt(d²) ≤ fl(sqrt(fl(dist²))) == dist,
// so walk accepts it as it would the exact minimum. The identity needs
// fl(dist²) to be a normal float; otherwise the evaluation stays exact.
func withinStop2(dist float64) float64 {
	if s := dist * dist; dist > 0 && s >= 0x1p-1022 && s <= math.MaxFloat64 {
		return s
	}
	return 0
}

// bound2 squares a distance bound into the seed of a bounded kernel, which
// reports only distances strictly below its seed: the square is inflated so
// a true distance exactly equal to the bound is still found, and kept above
// zero so that under a zero bound touching pairs (distance exactly 0) are.
// +Inf stays +Inf.
func bound2(upper float64) float64 {
	if u2 := upper * upper * (1 + 1e-12); u2 > 0 {
		return u2
	}
	return math.SmallestNonzeroFloat64
}

// groupPair is one (sub-object group, sub-object group) pair queued for
// minDist2Partitioned's branch-and-bound, ordered by box distance.
type groupPair struct {
	i, j int
	d2   float64
}

// groupPairPool recycles minDist2Partitioned's pair buffers: the function
// runs once per candidate pair on the refine hot path and would otherwise
// allocate a len(ga)*len(gb) slice each time (flagged by hotalloc).
var groupPairPool = sync.Pool{New: func() any { return new([]groupPair) }}

// minDist2Partitioned runs branch-and-bound over sub-object group pairs
// ordered by box distance, evaluating pairs until no remaining pair's box
// can beat the squared bound best2 or the best squared distance found,
// which it returns (best2 when no face pair beat it), or until that is
// ≤ stop2.
func (c *evalCtx) minDist2Partitioned(a, b obj, best2, stop2 float64) float64 {
	ga, gb := c.groupsOf(a), c.groupsOf(b)
	buf := groupPairPool.Get().(*[]groupPair)
	defer func() {
		groupPairPool.Put(buf)
	}()
	pairs := (*buf)[:0]
	for i := range ga {
		for j := range gb {
			pairs = append(pairs, groupPair{i, j, ga[i].Box.MinDist2(gb[j].Box)})
		}
	}
	*buf = pairs
	slices.SortFunc(pairs, func(x, y groupPair) int { return cmp.Compare(x.d2, y.d2) })

	for _, p := range pairs {
		if p.d2 >= best2 || best2 <= stop2 {
			break
		}
		// Both evaluators are seeded with the best bound so far and hand it
		// back unchanged when no face pair of this group pair beats it.
		ta, tb := &ga[p.i].Tris, &gb[p.j].Tris
		if c.opts.Accel == PartitionGPU {
			best2 = c.e.dev.MinDist2Bounded(ta, tb, best2, stop2)
		} else {
			best2 = geom.MinDist2BatchRange(ta, tb, 0, ta.Len()*tb.Len(), best2, stop2)
		}
	}
	return best2
}

// containsObject reports whether outer fully contains inner, given that
// their surfaces do not intersect: one vertex inside decides (Alg. 1,
// steps 8–12 of the paper).
func (c *evalCtx) containsObject(outer, inner obj) bool {
	if !outer.ds.Tileset.Object(outer.id).MBB().Contains(inner.ds.Tileset.Object(inner.id).MBB()) {
		return false
	}
	if len(inner.mesh.Vertices) == 0 {
		return false
	}
	return c.pointInside(outer, inner.mesh.Vertices[0])
}
