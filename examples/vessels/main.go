// Vessels: the paper's introduction workload — for every nucleus in a
// tissue sample, find its closest blood vessel (an all-nearest-neighbor
// join between a large set of simple objects and a small set of complex
// bifurcated ones), comparing the refinement accelerators.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
)

func main() {
	nuclei, vessels := datagen.Tissue(datagen.TissueOptions{
		Nuclei:  datagen.NucleiOptions{Count: 48, Seed: 11},
		Vessels: datagen.VesselOptions{Count: 4, Seed: 12},
	})
	var vesselFaces int
	for _, v := range vessels {
		vesselFaces += v.NumFaces()
	}
	fmt.Printf("tissue: %d nuclei (~320 faces each), %d vessels (avg %d faces)\n",
		len(nuclei), len(vessels), vesselFaces/len(vessels))

	eng := core.NewEngine(core.EngineOptions{})
	defer eng.Close()
	dsN, err := eng.BuildDataset("nuclei", nuclei, core.DatasetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	dsV, err := eng.BuildDataset("vessels", vessels, core.DatasetOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Let profiling choose the LOD ladder, as §6.5 prescribes.
	lods, _, err := eng.ProfileLODs(context.Background(), dsN, dsV, core.NNKind, 0, core.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled LOD schedule: %v\n\n", lods)

	var reference []core.Neighbor
	for _, accel := range []core.Accel{core.BruteForce, core.Partition, core.AABB, core.GPU, core.PartitionGPU} {
		eng.Cache().Clear()
		ns, stats, err := eng.NNJoin(context.Background(), dsN, dsV, core.QueryOptions{
			Paradigm: core.FPR, Accel: accel, LODs: lods,
		})
		if err != nil {
			log.Fatal(err)
		}
		if reference == nil {
			reference = ns
		} else if !sameAnswers(reference, ns) {
			log.Fatalf("accelerator %v returned different answers", accel)
		}
		fmt.Printf("%-14s %8v  (decode %v, geometry %v)\n",
			accel, stats.Elapsed.Round(time.Millisecond),
			stats.DecodeTime.Round(time.Millisecond), stats.GeomTime.Round(time.Millisecond))
	}

	fmt.Println("\nsample answers (nucleus -> closest vessel):")
	for i, nb := range reference {
		if i >= 5 {
			fmt.Printf("  ... %d more\n", len(reference)-5)
			break
		}
		fmt.Printf("  nucleus %2d -> vessel %d at distance %.3f\n", nb.Target, nb.Source, nb.Dist)
	}
}

func sameAnswers(a, b []core.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Target != b[i].Target || a[i].Dist-b[i].Dist > 1e-9 || b[i].Dist-a[i].Dist > 1e-9 {
			return false
		}
	}
	return true
}
