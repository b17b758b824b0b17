package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/ppvp"
	"repro/internal/storage"
)

// DatasetOptions configures ingestion of a mesh collection.
type DatasetOptions struct {
	// Compression configures the PPVP encoder.
	Compression ppvp.Options
	// Cuboids is the number of space-partition cuboids (paper: 1,000 for
	// the full tissue; default 64 here). Objects in one cuboid are stored
	// and batch-processed together for cache locality.
	Cuboids int
	// PartitionTargetFaces enables skeleton partitioning at ingest: objects
	// of at least twice this many faces are split into sub-objects of
	// roughly this size, and the sub-object boxes of their decoded top LODs
	// are indexed in a second global R-tree used by the Partition
	// accelerators. Zero uses the default (256); negative disables
	// partitioning.
	PartitionTargetFaces int
}

func (o *DatasetOptions) setDefaults() {
	if o.Compression.Rounds == 0 {
		o.Compression = ppvp.DefaultOptions()
	}
	if o.Cuboids <= 0 {
		o.Cuboids = 64
	}
	if o.PartitionTargetFaces == 0 {
		o.PartitionTargetFaces = 256
	}
}

// Dataset is an ingested, compressed, indexed object collection.
type Dataset struct {
	Name    string
	Tileset *storage.Tileset
	// tree indexes whole-object MBBs.
	tree *rtree.Tree
	// partTree indexes sub-object boxes for partitioned objects (and the
	// whole MBB for unpartitioned ones); nil when partitioning is off.
	partTree *rtree.Tree
	// skeletons[id] holds the skeleton points of partitioned objects
	// (nil entry = object too simple to partition).
	skeletons [][]geom.Vec3
	// partitionTargetFaces records the ingest-time partition granularity
	// (0 when partitioning is disabled), persisted by SaveDataset.
	partitionTargetFaces int

	maxLOD int
	// CompressStats aggregates encoder statistics over all objects.
	CompressStats ppvp.Stats
	// Salvage is the report of the LoadDatasetSalvage that produced the
	// dataset, listing the objects it dropped; nil for any other dataset.
	Salvage *storage.SalvageReport
}

// MaxLOD returns the highest LOD shared by all objects of the dataset.
func (d *Dataset) MaxLOD() int { return d.maxLOD }

// selfID returns the ID of the entry whose stored object is o itself — in a
// self-join, or a view sharing the target's objects (SampleCuboid) — or -1
// when the dataset does not hold o. Join filters skip that entry.
func (d *Dataset) selfID(o *storage.Object) int64 {
	if d.Tileset.Object(o.ID) == o {
		return o.ID
	}
	return -1
}

// Len returns the object count.
func (d *Dataset) Len() int { return len(d.Tileset.Objects) }

// Tree exposes the whole-object R-tree.
func (d *Dataset) Tree() *rtree.Tree { return d.tree }

// CompressedBytes returns the total compressed footprint.
func (d *Dataset) CompressedBytes() int64 { return d.Tileset.CompressedBytes() }

// BuildDataset compresses, stores, partitions, and indexes a collection of
// meshes. Meshes are compressed in parallel (the paper's 48-thread ingest).
func (e *Engine) BuildDataset(name string, meshes []*mesh.Mesh, opts DatasetOptions) (*Dataset, error) {
	opts.setDefaults()
	comps := make([]*ppvp.Compressed, len(meshes))
	stats := make([]ppvp.Stats, len(meshes))
	errs := make([]error, len(meshes))
	e.largestFirst(len(meshes), func(i int) int { return meshes[i].NumFaces() }, func(i int) {
		comps[i], stats[i], errs[i] = ppvp.Compress(meshes[i], opts.Compression)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: compressing object %d of %q: %w", i, name, err)
		}
	}

	space := geom.EmptyBox()
	for _, c := range comps {
		space = space.Union(c.MBB())
	}
	ts := storage.NewTileset(storage.NewGrid(space, opts.Cuboids), comps)
	d, err := e.newDataset(name, ts, opts.PartitionTargetFaces, nil)
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		d.CompressStats.VerticesExamined += st.VerticesExamined
		d.CompressStats.VerticesProtruding += st.VerticesProtruding
		d.CompressStats.VerticesRemoved += st.VerticesRemoved
	}
	return d, nil
}

// newDataset indexes ts as the dataset name — BuildDataset, the loads and
// AssembleDataset all construct through it. It takes the highest LOD every
// object shares, bulk-loads the whole-object R-tree and, when targetFaces is
// positive, partitions (partitionObjects). A failed decode fails it, unless
// salvage is non-nil: the object's blob is then quarantined and reported
// there as dropped, and the object keeps its whole-MBB entry.
func (e *Engine) newDataset(name string, ts *storage.Tileset, targetFaces int, salvage *storage.SalvageReport) (*Dataset, error) {
	d := &Dataset{Name: name, Tileset: ts, maxLOD: -1, Salvage: salvage}
	var entries []rtree.Entry
	for _, o := range ts.Objects {
		if o == nil {
			continue
		}
		if d.maxLOD < 0 || o.Comp.MaxLOD() < d.maxLOD {
			d.maxLOD = o.Comp.MaxLOD()
		}
		entries = append(entries, rtree.Entry{Box: o.MBB(), ID: o.ID})
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: dataset %q has no objects", name)
	}
	d.tree = rtree.BulkLoad(entries)
	if targetFaces <= 0 {
		return d, nil
	}
	d.partitionTargetFaces = targetFaces
	skeletons, parts, errs := e.partitionObjects(ts.Objects, targetFaces)
	for i, err := range errs {
		switch {
		case err == nil:
		case salvage == nil:
			return nil, fmt.Errorf("core: partitioning object %d of %q: %w", i, name, err)
		default:
			e.quar.Trip(ts.Objects[i].Comp.ID(), firstLine(err.Error()))
			salvage.ObjectsDropped = append(salvage.ObjectsDropped, storage.DroppedObject{
				ID: int64(i), Reason: "decode failed: " + firstLine(err.Error()),
			})
		}
	}
	d.skeletons, d.partTree = skeletons, rtree.BulkLoad(parts)
	return d, nil
}

// partitionObjects splits every object whose recorded face count makes more
// than one group of targetFaces along the skeleton of its decoded top LOD —
// the mesh queries evaluate, so the sub-object boxes bound it — on the
// engine's Workers goroutines; no other object is decoded. It returns the
// skeletons by object id (nil for an object left whole), the sub-object
// boxes collected per object and concatenated in id order — so the R-tree
// bulk load sees the same entry sequence whichever worker finishes first —
// and the decode error per object. A hole gets no entry; an object whose
// decode failed keeps its whole-MBB entry.
func (e *Engine) partitionObjects(objs []*storage.Object, targetFaces int) ([][]geom.Vec3, []rtree.Entry, []error) {
	skeletons := make([][]geom.Vec3, len(objs))
	parts := make([][]rtree.Entry, len(objs))
	errs := make([]error, len(objs))
	size := func(i int) int {
		if objs[i] == nil {
			return 0
		}
		return objs[i].Comp.TotalSize()
	}
	e.largestFirst(len(objs), size, func(i int) {
		o := objs[i]
		if o == nil {
			return
		}
		var m *mesh.Mesh
		k := 0
		if partition.GroupCount(o.Comp.NumFaces(), targetFaces) > 1 {
			if m, errs[i] = decodeRecovered(o.Comp); errs[i] == nil {
				k = partition.GroupCount(m.NumFaces(), targetFaces)
			}
		}
		if k <= 1 {
			parts[i] = []rtree.Entry{{Box: o.MBB(), ID: o.ID}}
			return
		}
		skeletons[i] = partition.Skeleton(m, k)
		for _, g := range partition.AssignFaces(m, skeletons[i]) {
			parts[i] = append(parts[i], rtree.Entry{Box: g.Box, ID: o.ID})
		}
	})
	return skeletons, slices.Concat(parts...), errs
}

// largestFirst runs fn(i) once for every i < n on the engine's Workers
// goroutines, which pull indices in descending size(i): the largest object
// is the long pole of an ingest and must not be the last to start.
func (e *Engine) largestFirst(n int, size func(i int) int, fn func(i int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return size(b) - size(a) })
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(order)); k = next.Add(1) - 1 {
				fn(order[k])
			}
		}()
	}
	wg.Wait()
}

// AssembleDataset builds a queryable dataset directly from an existing
// tileset: object IDs are preserved verbatim (nil holes allowed, as after a
// salvage load), nothing is re-encoded or decoded, and only the whole-object
// R-tree is built. There is no skeleton partitioning — the Partition
// accelerators transparently fall back to the whole-object tree — keeping
// assembly cheap enough for the sharded serving tier, which assembles one
// sub-tileset per home group (and one source set of home sources and loans
// per join leg) out of blobs that already exist in memory, sharing their
// cached decodes with other datasets.
func (e *Engine) AssembleDataset(name string, ts *storage.Tileset) (*Dataset, error) {
	return e.newDataset(name, ts, 0, nil)
}

// filterTree returns the R-tree the filtering step should use for the given
// accelerator: the sub-object tree for partition-based refinement when it
// exists, otherwise the whole-object tree.
func (d *Dataset) filterTree(a Accel) *rtree.Tree {
	if a.UsesPartition() && d.partTree != nil {
		return d.partTree
	}
	return d.tree
}
