package main

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/gpusim"
	"repro/internal/index/aabbtree"
	"repro/internal/index/rtree"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/ppvp"
	"repro/internal/storage"
)

// probeSample is how many objects, and how many candidate pairs, a probe
// times.
const probeSample = 64

// probeLayers times direct calls into each layer's public functions on a
// seed-chosen sample of the workload's own meshes, and on candidate pairs of
// target × source (MBBs intersecting) when the workload has joins. It fills
// the per-layer metrics that no query statistic carries. The numbers are
// means over the sample; they have no bound and say which layer moved, not
// by how much an end-to-end metric should.
func probeLayers(seed int64, scratch string, m map[string]float64, target, source *core.Dataset, meshes []*mesh.Mesh) error {
	rng := rand.New(rand.NewSource(seed))
	sample := make([]*mesh.Mesh, 0, probeSample)
	for _, i := range rng.Perm(len(meshes))[:min(probeSample, len(meshes))] {
		sample = append(sample, meshes[i])
	}
	n := float64(len(sample))
	opts := datasetOptions(8)

	// ppvp: encode, the cold decode ladder, one straight decode to the top.
	comps := make([]*ppvp.Compressed, len(sample))
	t0 := time.Now()
	for i, msh := range sample {
		c, _, err := ppvp.Compress(msh, opts.Compression)
		if err != nil {
			return err
		}
		comps[i] = c
	}
	m["ppvp.encode_ms_per_object"] = ms(time.Since(t0)) / n

	rounds := 0
	t0 = time.Now()
	for _, c := range comps {
		dec, err := c.NewDecoder()
		if err != nil {
			return err
		}
		for lod := 0; lod <= c.MaxLOD(); lod++ {
			if _, err := dec.DecodeTo(lod); err != nil {
				return err
			}
		}
		rounds += dec.RoundsApplied()
	}
	m["ppvp.decode_us_per_round"] = us(time.Since(t0)) / float64(max(rounds, 1))

	tops := make([]*mesh.Mesh, len(comps))
	t0 = time.Now()
	for i, c := range comps {
		top, err := c.Decode(c.MaxLOD())
		if err != nil {
			return err
		}
		tops[i] = top
	}
	m["ppvp.decode_top_lod_us"] = us(time.Since(t0)) / n

	// cache: Get of a resident key.
	ch := cache.New(64 << 20)
	key := cache.Key{Object: 1, LOD: 0}
	if _, err := ch.GetOrDecode(key, func() (*mesh.Mesh, error) { return tops[0], nil }); err != nil {
		return err
	}
	const gets = 200_000
	t0 = time.Now()
	for i := 0; i < gets; i++ {
		if ch.Get(key) == nil {
			return errors.New("probe: resident key missed")
		}
	}
	m["cache.hit_ns"] = float64(time.Since(t0).Nanoseconds()) / gets

	// storage: tiles written and read back, without the index rebuild that
	// Dataset.SaveDataset/LoadDataset add on top.
	space := geom.EmptyBox()
	for _, c := range comps {
		space = space.Union(c.MBB())
	}
	grid := storage.NewGrid(space, 8)
	ts := storage.NewTileset(grid, comps)
	dir := filepath.Join(scratch, "probe-tiles")
	defer os.RemoveAll(dir)
	t0 = time.Now()
	if err := ts.SaveTiles(dir); err != nil {
		return err
	}
	saveT := time.Since(t0)
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := storage.LoadTiles(dir, grid); err != nil {
		return err
	}
	loadT := time.Since(t0)
	mb := float64(disk) / (1 << 20)
	m["storage.save_mb_per_s"] = mb / saveT.Seconds()
	m["storage.load_mb_per_s"] = mb / loadT.Seconds()
	m["storage.disk_bytes_per_object"] = float64(disk) / n

	// index/rtree: bulk load of the sample's MBBs, then the three searches
	// the filter step uses, on the sample's own boxes.
	entries := make([]rtree.Entry, len(comps))
	for i, c := range comps {
		entries[i] = rtree.Entry{Box: c.MBB(), ID: int64(i)}
	}
	const loads = 200
	var tree *rtree.Tree
	t0 = time.Now()
	for i := 0; i < loads; i++ {
		tree = rtree.BulkLoad(entries)
	}
	m["rtree.bulkload_us_per_entry"] = us(time.Since(t0)) / (loads * n)
	found := 0
	t0 = time.Now()
	for _, e := range entries {
		tree.SearchIntersect(e.Box, func(rtree.Entry) bool { found++; return true })
		found += len(tree.SearchWithin(e.Box, joinWithinDist).Candidates)
		found += len(tree.NNCandidates(e.Box, 1, nil))
	}
	m["rtree.search_us"] = us(time.Since(t0)) / (3 * n)
	if found == 0 {
		return errors.New("probe: R-tree searches found nothing")
	}

	// partition and index/aabbtree build, on the decoded top LODs.
	faces := 0
	t0 = time.Now()
	for _, top := range tops {
		partition.PartitionMesh(top, partition.GroupCount(top.NumFaces(), 256))
	}
	m["partition.ms_per_object"] = ms(time.Since(t0)) / n
	t0 = time.Now()
	for _, top := range tops {
		aabbtree.BuildSoA(top.SoA())
		faces += top.NumFaces()
	}
	m["aabbtree.build_us_per_kface"] = us(time.Since(t0)) / (float64(faces) / 1000)

	if target == nil {
		return nil // no joins on this workload: the pair kernels do no work
	}
	return probePairs(rng, m, target, source)
}

// probePairs times the refine kernels on real candidate pairs: objects of
// target and source whose MBBs intersect, decoded to the top LOD.
func probePairs(rng *rand.Rand, m map[string]float64, target, source *core.Dataset) error {
	type pair struct{ a, b *geom.TriSoA }
	var pairs []pair
	decoded := map[*storage.Object]*geom.TriSoA{}
	soa := func(o *storage.Object) (*geom.TriSoA, error) {
		if s, ok := decoded[o]; ok {
			return s, nil
		}
		top, err := o.Comp.Decode(o.Comp.MaxLOD())
		if err != nil {
			return nil, err
		}
		decoded[o] = top.SoA()
		return decoded[o], nil
	}
	for _, i := range rng.Perm(target.Len()) {
		o := target.Tileset.Objects[i]
		var hits []int64
		source.Tree().SearchIntersect(o.MBB(), func(e rtree.Entry) bool { hits = append(hits, e.ID); return true })
		for _, id := range hits {
			a, err := soa(o)
			if err != nil {
				return err
			}
			b, err := soa(source.Tileset.Object(id))
			if err != nil {
				return err
			}
			pairs = append(pairs, pair{a, b})
		}
		if len(pairs) >= probeSample {
			break
		}
	}
	if len(pairs) == 0 {
		return errors.New("probe: no candidate pairs between the probe datasets")
	}
	n := float64(len(pairs))
	var facePairs float64
	trees := make([][2]*aabbtree.Tree, len(pairs))
	for i, p := range pairs {
		facePairs += float64(p.a.Len() * p.b.Len())
		trees[i] = [2]*aabbtree.Tree{aabbtree.BuildSoA(p.a), aabbtree.BuildSoA(p.b)}
	}
	inf := math.Inf(1)

	hits := 0
	t0 := time.Now()
	for _, t := range trees {
		if t[0].IntersectsTree(t[1]) {
			hits++
		}
	}
	m["aabbtree.intersect_us_per_pair"] = us(time.Since(t0)) / n
	t0 = time.Now()
	for _, t := range trees {
		t[0].DistToTreeBounded(t[1], inf)
	}
	m["aabbtree.dist_us_per_pair"] = us(time.Since(t0)) / n

	batchHits := 0
	t0 = time.Now()
	for _, p := range pairs {
		if geom.IntersectsBatch(p.a, p.b) {
			batchHits++
		}
	}
	m["geom.intersect_ns_per_facepair"] = float64(time.Since(t0).Nanoseconds()) / facePairs
	t0 = time.Now()
	for _, p := range pairs {
		geom.MinDist2Batch(p.a, p.b, inf)
	}
	m["geom.mindist_ns_per_facepair"] = float64(time.Since(t0).Nanoseconds()) / facePairs
	if hits != batchHits {
		return errors.New("probe: aabbtree and batch kernel disagree on which candidate pairs intersect")
	}

	dev := gpusim.New(0, 0)
	defer dev.Close()
	tasks := make([]gpusim.PairTask, len(pairs))
	for i, p := range pairs {
		tasks[i] = gpusim.PairTask{Kind: gpusim.PairMinDist, A: p.a, B: p.b, Upper2: inf}
	}
	verdicts := make([]gpusim.PairVerdict, len(tasks))
	t0 = time.Now()
	dev.EvalPairBatch(tasks, verdicts, nil)
	m["gpusim.evalbatch_us"] = us(time.Since(t0))
	for _, v := range verdicts {
		if v.Err != nil {
			return v.Err
		}
	}
	return nil
}
