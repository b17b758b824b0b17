// Atlas: the 3D-atlas workflow the paper's introduction motivates (HuBMAP,
// HTAN) — ingest a tissue sample once into persistent storage, reload it
// later, and serve region and point lookups against it: "which structures
// lie in this region of interest?", "which structure contains this
// coordinate?".
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
)

func main() {
	dir, err := os.MkdirTemp("", "3dpro-atlas-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	nuclei, vessels := datagen.Tissue(datagen.TissueOptions{
		Nuclei:  datagen.NucleiOptions{Count: 48, Seed: 21},
		Vessels: datagen.VesselOptions{Count: 3, Seed: 22},
	})
	eng := eng()
	defer eng.Close()

	// Ingest once, persist as one dataset file.
	t0 := time.Now()
	ds, err := eng.BuildDataset("tissue", append(nuclei, vessels...), core.DatasetOptions{Cuboids: 27})
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.SaveDataset(dir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d structures (%d nuclei + %d vessels) in %v, persisted %d B to %s\n",
		ds.Len(), len(nuclei), len(vessels), time.Since(t0).Round(time.Millisecond),
		ds.CompressedBytes(), dir)

	// A later session: load the atlas back.
	atlas, err := eng.LoadDataset(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded atlas: %d structures, %d LODs each\n\n", atlas.Len(), atlas.MaxLOD()+1)

	// Region of interest: a cube in the middle of the tissue.
	roi := geom.Box3{Min: geom.V(35, 35, 35), Max: geom.V(65, 65, 65)}
	ids, stats, err := eng.RangeQuery(context.Background(), atlas, roi, core.QueryOptions{Paradigm: core.FPR})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range query %v:\n  %d structures intersect the ROI (%v, %d candidates)\n",
		roi, len(ids), stats.Elapsed.Round(time.Millisecond), stats.Candidates)

	// Point lookups: which structure contains each probe coordinate?
	probes := []geom.Vec3{
		nucleusCentroid(eng, atlas, 0),
		geom.V(50, 50, 50),
		geom.V(5, 5, 95),
	}
	for _, p := range probes {
		owners, _, err := eng.ContainingObjects(context.Background(), atlas, p, core.QueryOptions{Paradigm: core.FPR, Accel: core.AABB})
		if err != nil {
			log.Fatal(err)
		}
		if len(owners) == 0 {
			fmt.Printf("point %v: in no structure (extracellular space)\n", p)
		} else {
			fmt.Printf("point %v: inside structure(s) %v\n", p, owners)
		}
	}
}

func eng() *core.Engine {
	return core.NewEngine(core.EngineOptions{})
}

func nucleusCentroid(e *core.Engine, d *core.Dataset, id int64) geom.Vec3 {
	m, err := d.Tileset.Object(id).Comp.Decode(d.MaxLOD())
	if err != nil {
		log.Fatal(err)
	}
	return m.Centroid()
}
