package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/ppvp"
	"repro/internal/storage"
)

// partitionTissue returns three vessels of very different sizes followed by
// twelve nuclei.
func partitionTissue() []*mesh.Mesh {
	nuclei, vessels := datagen.Tissue(datagen.TissueOptions{
		Nuclei:  datagen.NucleiOptions{Count: 12, Seed: 5},
		Vessels: datagen.VesselOptions{Count: 3, RingSegments: 8, PathPoints: 8, Seed: 6},
	})
	return append(vessels, nuclei...)
}

// TestPartitionEntriesDeterministic: the sub-object R-tree is bulk-loaded
// from per-object entry lists concatenated in id order, so its input does
// not depend on which worker finishes first. Vessels of very different
// sizes among nuclei make the finish order vary from run to run.
func TestPartitionEntriesDeterministic(t *testing.T) {
	meshes := partitionTissue()
	e := NewEngine(EngineOptions{Workers: 4})
	comps := make([]*ppvp.Compressed, len(meshes))
	for i, m := range meshes {
		var err error
		if comps[i], _, err = ppvp.Compress(m, ppvp.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	objs := storage.NewTileset(storage.NewGrid(geom.Box3{}, 1), comps).Objects
	_, want, errs := e.partitionObjects(objs, 64)
	byID := func(a, b rtree.Entry) int { return int(a.ID - b.ID) }
	if len(want) <= len(meshes) || !slices.IsSortedFunc(want, byID) || slices.ContainsFunc(errs, func(err error) bool { return err != nil }) {
		t.Fatalf("%d entries for %d objects, not in id order, or errors %v", len(want), len(meshes), errs)
	}
	for run := 0; run < 8; run++ {
		if _, got, _ := e.partitionObjects(objs, 64); !slices.Equal(got, want) {
			t.Fatalf("run %d: partition entries differ from the first run's", run)
		}
	}
}

// TestAssembledDatasetsShareDecodes: decode-cache keys follow the blob, so
// two datasets assembled over the same objects — a shard's home group and a
// loan set naming its objects — share decoded meshes and accelerators. The
// objects come from another engine, as they do on a shard.
func TestAssembledDatasetsShareDecodes(t *testing.T) {
	a, b := buildPair(t, testEngine(t))
	e := testEngine(t)
	assemble := func(d *Dataset) *Dataset {
		x, err := e.AssembleDataset(d.Name+"@view", d.Tileset)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	q := QueryOptions{Accel: AABB}
	want, first := runJoin(t, e, IntersectKind, assemble(a), assemble(b), 0, q)
	got, second := runJoin(t, e, IntersectKind, assemble(a), assemble(b), 0, q)
	if first.Decodes == 0 || first.AccelBuilds == 0 {
		t.Fatalf("first query decoded %d, built %d: fixture proves nothing", first.Decodes, first.AccelBuilds)
	}
	if second.Decodes != 0 || second.AccelBuilds != 0 {
		t.Errorf("second dataset pair over the same objects decoded %d and built %d, want 0 and 0", second.Decodes, second.AccelBuilds)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("answers differ: %v vs %v", got, want)
	}
}

// TestAssembledDatasetsShareQuarantine: the quarantine breaker is keyed by
// blob, like the decode cache, so a blob tripped once is skipped by Degrade
// queries over every dataset assembled over it — as a shard's per-leg loan
// datasets are — and stays one tracked key.
func TestAssembledDatasetsShareQuarantine(t *testing.T) {
	a, b := buildPair(t, testEngine(t))
	e := testEngine(t)
	clean, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{})
	if err != nil || len(clean) == 0 {
		t.Fatalf("clean join: %d pairs, %v", len(clean), err)
	}
	bad := clean[0].Target
	e.Quarantine().Trip(blobOf(a, bad), "test trip")
	for view := 0; view < 2; view++ {
		x, err := e.AssembleDataset(a.Name+"@view", a.Tileset)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := e.IntersectJoin(context.Background(), x, b, QueryOptions{OnError: Degrade})
		if err != nil {
			t.Fatal(err)
		}
		skipped := slices.ContainsFunc(st.Degraded, func(d ObjectError) bool {
			return d.Dataset == x.Name && d.Object == bad && strings.Contains(d.Err, "quarantined")
		})
		if st.QuarantineSkips == 0 || !skipped {
			t.Fatalf("view %d: tripped object %d not skipped (skips %d, degraded %+v)", view, bad, st.QuarantineSkips, st.Degraded)
		}
		if slices.ContainsFunc(got, func(p Pair) bool { return p.Target == bad }) {
			t.Fatalf("view %d: tripped object %d answered as certain", view, bad)
		}
	}
	if st := e.Quarantine().Stats(); st.Tracked != 1 || st.Trips != 1 || st.Failures != 0 {
		t.Errorf("breaker stats %+v, want one tracked key, one trip and no decode failure", st)
	}
}

// TestLoadedDatasetsShareNoCacheKey: LoadDataset constructs blobs of its
// own, so two loads of one directory — which carry skeletons, and so
// partition memos that must not be shared (see groupsOf) — never share a
// decode-cache key.
func TestLoadedDatasetsShareNoCacheKey(t *testing.T) {
	e := testEngine(t)
	a, _ := buildPair(t, e)
	dir := t.TempDir()
	if err := a.SaveDataset(dir); err != nil {
		t.Fatal(err)
	}
	keys := map[cache.Key]bool{}
	for load := 0; load < 2; load++ {
		d, err := e.LoadDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		for id := int64(0); id < int64(d.Len()); id++ {
			k := cacheKey(d, id, d.MaxLOD())
			if keys[k] {
				t.Fatalf("load %d: object %d reuses cache key %v", load, id, k)
			}
			keys[k] = true
		}
	}
}

// subObjectBoxes returns the sub-object R-tree's boxes by object id.
func subObjectBoxes(d *Dataset) map[int64][]geom.Box3 {
	boxes := map[int64][]geom.Box3{}
	d.partTree.SearchIntersect(d.partTree.Bounds(), func(e rtree.Entry) bool {
		boxes[e.ID] = append(boxes[e.ID], e.Box)
		return true
	})
	return boxes
}

// TestSubObjectBoxesBoundTheDecodedTopLOD: the Partition accelerators filter
// on sub-object boxes, so the boxes must bound the mesh that queries
// evaluate, the decoded top LOD. Quantization moves decoded vertices up to
// half a cell off the source mesh, and so out of boxes taken from the source
// mesh. A small sphere placed just inside the within distance of such a
// vertex, and farther than it from every source-mesh box of the vessel, is
// an answer that a filter on source-mesh boxes drops. (The spheres have as
// many LODs as the vessels, so the join's top rung is the vessels' own.)
func TestSubObjectBoxesBoundTheDecodedTopLOD(t *testing.T) {
	const dist, r = 0.5, 0.001
	vessels := datagen.Vessels(datagen.VesselOptions{Count: 6, RingSegments: 12, PathPoints: 24, Seed: 6})
	opts := DatasetOptions{Compression: ppvp.DefaultOptions(), Cuboids: 8}
	opts.Compression.Rounds = 10
	e := testEngine(t)
	vd, err := e.BuildDataset("vessels", vessels, opts)
	if err != nil {
		t.Fatal(err)
	}
	boxes := subObjectBoxes(vd)

	var spheres []*mesh.Mesh
	var want []Pair
	for id, src := range vessels {
		top, err := decodeRecovered(vd.Tileset.Objects[id].Comp)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range top.Vertices {
			if !slices.ContainsFunc(boxes[int64(id)], func(b geom.Box3) bool { return b.ContainsPoint(v) }) {
				t.Errorf("vessel %d: decoded top-LOD vertex %v lies outside every sub-object box", id, v)
				break
			}
		}
		if len(spheres) == 3 {
			continue
		}
		// The decoded vertex farthest outside the source mesh's boxes, and
		// a sphere dist − gap/2 beyond it, away from the nearest box.
		skel := partition.Skeleton(src, partition.GroupCount(src.NumFaces(), 256))
		var srcBoxes []geom.Box3
		for _, g := range partition.AssignFaces(src, skel) {
			srcBoxes = append(srcBoxes, g.Box)
		}
		var far, near geom.Vec3
		gap := 0.0
		for _, v := range top.Vertices {
			p, d := geom.Vec3{}, math.Inf(1)
			for _, b := range srcBoxes {
				if bd := b.DistToPoint(v); bd < d {
					p, d = b.ClosestPoint(v), bd
				}
			}
			if d > gap {
				far, near, gap = v, p, d
			}
		}
		if gap == 0 {
			continue
		}
		sphere := mesh.Icosphere(r, 3)
		sphere.Translate(far.Add(far.Sub(near).Mul((dist - gap/2 + r) / gap)))
		if slices.ContainsFunc(srcBoxes, func(b geom.Box3) bool { return b.MinDist(sphere.Bounds()) <= dist }) {
			continue
		}
		want = append(want, Pair{Target: int64(len(spheres)), Source: int64(id)})
		spheres = append(spheres, sphere)
	}
	if len(spheres) < 3 {
		t.Fatalf("only %d vessels have a decoded vertex outside their source-mesh boxes: fixture proves nothing", len(spheres))
	}
	sd, err := e.BuildDataset("spheres", spheres, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sd.MaxLOD() < vd.MaxLOD() {
		t.Fatalf("spheres have %d LODs, vessels %d: the join would not reach the vessels' top LOD", sd.MaxLOD()+1, vd.MaxLOD()+1)
	}
	ref, _, err := e.WithinJoin(context.Background(), sd, vd, dist, QueryOptions{Accel: AABB})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, want) {
		t.Fatalf("aabb answer %v, want %v: fixture proves nothing", ref, want)
	}
	for _, accel := range []Accel{BruteForce, Partition, PartitionGPU} {
		got, _, err := e.WithinJoin(context.Background(), sd, vd, dist, QueryOptions{Accel: accel})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%v answer %v, aabb answer %v", accel, got, ref)
		}
	}
}

// TestReloadedDatasetIndexesAsBuilt: a dataset reloaded from its save has
// the skeletons and sub-object boxes it was built with, and so answers every
// join as the built one does, with the same counters. Each side runs every
// query on a fresh engine.
func TestReloadedDatasetIndexesAsBuilt(t *testing.T) {
	opts := DatasetOptions{Compression: ppvp.DefaultOptions(), Cuboids: 8, PartitionTargetFaces: 64}
	built, err := testEngine(t).BuildDataset("tissue", partitionTissue(), opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDataset(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := testEngine(t).LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	partitioned := 0
	for id := range built.skeletons {
		if built.skeletons[id] != nil {
			partitioned++
		}
		if !slices.Equal(loaded.skeletons[id], built.skeletons[id]) {
			t.Errorf("object %d: reloaded skeleton %v, built %v", id, loaded.skeletons[id], built.skeletons[id])
		}
	}
	if partitioned < len(built.skeletons)/2 {
		t.Fatalf("%d of %d objects partitioned: fixture proves little", partitioned, len(built.skeletons))
	}
	if got, want := subObjectBoxes(loaded), subObjectBoxes(built); !reflect.DeepEqual(got, want) {
		t.Errorf("reloaded sub-object boxes differ from the built ones")
	}

	for _, kind := range []QueryKind{IntersectKind, WithinKind, NNKind} {
		for _, accel := range allAccels {
			q := QueryOptions{Accel: accel, K: 3}
			run := func(d *Dataset) ([]Pair, []Neighbor, *Stats) {
				pairs, ns, st, err := testEngine(t).join(context.Background(), kind, d, d, 5, q)
				if err != nil {
					t.Fatal(err)
				}
				return pairs, ns, st
			}
			wantPairs, wantNs, wantSt := run(built)
			gotPairs, gotNs, gotSt := run(loaded)
			if !reflect.DeepEqual(gotPairs, wantPairs) || !reflect.DeepEqual(gotNs, wantNs) {
				t.Errorf("%v/%v: reloaded answer differs from the built one", kind, accel)
			}
			for _, c := range Counters {
				if !c.Millis() && *c.Field(gotSt) != *c.Field(wantSt) {
					t.Errorf("%v/%v: reloaded %s = %d, built %d", kind, accel, c.Name, *c.Field(gotSt), *c.Field(wantSt))
				}
			}
			if !slices.Equal(gotSt.PairsEvaluated, wantSt.PairsEvaluated) || !slices.Equal(gotSt.PairsPruned, wantSt.PairsPruned) {
				t.Errorf("%v/%v: reloaded per-LOD counts %v/%v, built %v/%v", kind, accel,
					gotSt.PairsEvaluated, gotSt.PairsPruned, wantSt.PairsEvaluated, wantSt.PairsPruned)
			}
		}
	}
}
