package core

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/datagen"
	"repro/internal/index/rtree"
	"repro/internal/ppvp"
)

// TestPartitionEntriesDeterministic: the sub-object R-tree is bulk-loaded
// from per-object entry lists concatenated in id order, so its input does
// not depend on which worker finishes first. Vessels of very different
// sizes among nuclei make the finish order vary from build to build.
func TestPartitionEntriesDeterministic(t *testing.T) {
	nuclei, vessels := datagen.Tissue(datagen.TissueOptions{
		Nuclei:  datagen.NucleiOptions{Count: 12, Seed: 5},
		Vessels: datagen.VesselOptions{Count: 3, RingSegments: 8, PathPoints: 8, Seed: 6},
	})
	meshes := append(vessels, nuclei...)
	e := NewEngine(EngineOptions{Workers: 4})
	comps := make([]*ppvp.Compressed, len(meshes))
	for i, m := range meshes {
		var err error
		if comps[i], _, err = ppvp.Compress(m, ppvp.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	_, want := e.partitionObjects(meshes, comps, 64)
	byID := func(a, b rtree.Entry) int { return int(a.ID - b.ID) }
	if len(want) <= len(meshes) || !slices.IsSortedFunc(want, byID) {
		t.Fatalf("%d entries for %d objects, or not in id order", len(want), len(meshes))
	}
	for run := 0; run < 8; run++ {
		if _, got := e.partitionObjects(meshes, comps, 64); !slices.Equal(got, want) {
			t.Fatalf("run %d: partition entries differ from the first build's", run)
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
