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
	// with more than this many faces are split into sub-objects of roughly
	// this size, and the sub-object boxes are indexed in a second global
	// R-tree used by the Partition accelerators. Zero uses the default
	// (256); negative disables partitioning.
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
	if len(meshes) == 0 {
		return nil, fmt.Errorf("core: dataset %q has no objects", name)
	}

	comps := make([]*ppvp.Compressed, len(meshes))
	stats := make([]ppvp.Stats, len(meshes))
	errs := make([]error, len(meshes))
	e.largestFirst(meshes, func(i int) {
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
	grid := storage.NewGrid(space, opts.Cuboids)
	ts := storage.NewTileset(grid, comps)

	d := &Dataset{Name: name, Tileset: ts, maxLOD: comps[0].MaxLOD()}
	if opts.PartitionTargetFaces > 0 {
		d.partitionTargetFaces = opts.PartitionTargetFaces
	}
	for i, c := range comps {
		if c.MaxLOD() < d.maxLOD {
			d.maxLOD = c.MaxLOD()
		}
		d.CompressStats.VerticesExamined += stats[i].VerticesExamined
		d.CompressStats.VerticesProtruding += stats[i].VerticesProtruding
		d.CompressStats.VerticesRemoved += stats[i].VerticesRemoved
	}

	// Whole-object index.
	entries := make([]rtree.Entry, len(comps))
	for i, c := range comps {
		entries[i] = rtree.Entry{Box: c.MBB(), ID: int64(i)}
	}
	d.tree = rtree.BulkLoad(entries)

	// Skeleton partitioning + sub-object index.
	if opts.PartitionTargetFaces > 0 {
		var partEntries []rtree.Entry
		d.skeletons, partEntries = e.partitionObjects(meshes, comps, opts.PartitionTargetFaces)
		d.partTree = rtree.BulkLoad(partEntries)
	}
	return d, nil
}

// partitionObjects splits every object of more than targetFaces faces along
// its skeleton. It returns the skeletons by object id (nil for an object
// left whole) and the sub-object boxes, collected per object and
// concatenated in id order — so the R-tree bulk load sees the same entry
// sequence whichever worker finishes first.
func (e *Engine) partitionObjects(meshes []*mesh.Mesh, comps []*ppvp.Compressed, targetFaces int) ([][]geom.Vec3, []rtree.Entry) {
	skeletons := make([][]geom.Vec3, len(meshes))
	parts := make([][]rtree.Entry, len(meshes))
	e.largestFirst(meshes, func(i int) {
		k := partition.GroupCount(meshes[i].NumFaces(), targetFaces)
		if k <= 1 {
			parts[i] = []rtree.Entry{{Box: comps[i].MBB(), ID: int64(i)}}
			return
		}
		skeletons[i] = partition.Skeleton(meshes[i], k)
		for _, g := range partition.AssignFaces(meshes[i], skeletons[i]) {
			parts[i] = append(parts[i], rtree.Entry{Box: g.Box, ID: int64(i)})
		}
	})
	return skeletons, slices.Concat(parts...)
}

// largestFirst runs fn(i) once for every mesh on the engine's Workers
// goroutines, which pull indices in descending face count: the largest
// object is the long pole of an ingest and must not be the last to start.
func (e *Engine) largestFirst(meshes []*mesh.Mesh, fn func(i int)) {
	order := make([]int, len(meshes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return meshes[b].NumFaces() - meshes[a].NumFaces() })
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
// salvage load), nothing is re-encoded, and only the whole-object R-tree is
// rebuilt. Skeleton partitioning is not recomputed — the Partition
// accelerators transparently fall back to the whole-object tree — keeping
// assembly cheap enough for the sharded serving tier, which assembles one
// sub-tileset per shard (and per-query loan sets) out of blobs that already
// exist in memory, sharing their cached decodes with other datasets.
func (e *Engine) AssembleDataset(name string, ts *storage.Tileset) (*Dataset, error) {
	d := &Dataset{Name: name, Tileset: ts, maxLOD: -1}
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
	return d, nil
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
