package core

import (
	"slices"
	"testing"

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
