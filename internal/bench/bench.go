// Package bench is the experiment harness: one driver per table and figure
// of the paper's evaluation (§6), each regenerating the corresponding rows
// or series on the synthetic datasets. Absolute numbers differ from the
// paper's testbed (simulated GPU, scaled datasets); the harness exists to
// reproduce the *shape* of every result: which technique wins, by roughly
// what factor, and where the crossovers sit.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/ppvp"
)

// Config scales the experiment workloads. The defaults run the full suite
// on a laptop in minutes; the paper's scales (10M nuclei, 50K vessels,
// 30K faces each) are reachable by raising the counts.
type Config struct {
	// NucleiCount objects per nuclei dataset (paper: ~10M total).
	NucleiCount int
	// NucleiLevel is the icosphere subdivision (2 → 320 faces ≈ paper's 300).
	NucleiLevel int
	// VesselCount objects in the vessel dataset (paper: ~50K).
	VesselCount int
	// VesselRingSegments / VesselPathPoints set vessel complexity
	// (paper: ~30K faces; defaults give ~2–3K).
	VesselRingSegments int
	VesselPathPoints   int
	// Space is the tissue cube.
	Space geom.Box3
	// WithinDist is the distance for within joins.
	WithinDist float64
	// Seed drives all data generation.
	Seed int64
	// Workers for query execution (0 = GOMAXPROCS).
	Workers int
	// CacheBytes for the decode cache.
	CacheBytes int64
	// Cuboids for space partitioning.
	Cuboids int
	// Rounds of PPVP decimation (10 → 6 LODs, as in the paper).
	Rounds int
}

// DefaultConfig returns the scaled-down workload documented in
// EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		NucleiCount:        96,
		NucleiLevel:        2,
		VesselCount:        8,
		VesselRingSegments: 12,
		VesselPathPoints:   12,
		Space:              geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(100, 100, 100)},
		WithinDist:         8,
		Seed:               42,
		Workers:            runtime.GOMAXPROCS(0),
		CacheBytes:         512 << 20,
		Cuboids:            27,
		Rounds:             10,
	}
}

// QuickConfig returns a smaller workload for smoke runs and unit tests.
func QuickConfig() Config {
	c := DefaultConfig()
	c.NucleiCount = 24
	c.NucleiLevel = 1
	c.VesselCount = 2
	c.VesselRingSegments = 8
	c.VesselPathPoints = 8
	c.Rounds = 8
	c.WithinDist = 12
	return c
}

// Suite owns the engine and the five datasets every experiment queries:
//
//	nucleiA, nucleiB — two overlapping "segmentation outputs" (INT-NN);
//	nuclei1, nuclei2 — two interior-disjoint nuclei sets (WN-NN, NN-NN);
//	nucleiT, vessels — one tissue: nuclei around vasculature (WN-NV, NN-NV).
type Suite struct {
	Cfg    Config
	Engine *core.Engine

	NucleiA *core.Dataset
	NucleiB *core.Dataset
	Nuclei1 *core.Dataset
	Nuclei2 *core.Dataset
	NucleiT *core.Dataset
	Vessels *core.Dataset

	// Raw meshes are kept for the SDBMS baseline and Fig. 11.
	MeshesA, MeshesB, Meshes1, Meshes2, MeshesT, MeshesV []*mesh.Mesh

	BuildTime time.Duration
}

// NewSuite generates all datasets and ingests them. The build is
// deterministic in cfg.Seed.
func NewSuite(cfg Config) (*Suite, error) {
	start := time.Now()
	s := &Suite{Cfg: cfg}
	s.Engine = core.NewEngine(core.EngineOptions{
		CacheBytes: cfg.CacheBytes,
		Workers:    cfg.Workers,
	})

	// Overlapping pair for intersection joins.
	genA := datagen.NucleiOptions{
		Count: cfg.NucleiCount, SubdivisionLevel: cfg.NucleiLevel,
		Space: cfg.Space, Seed: cfg.Seed,
	}
	s.MeshesA = datagen.Nuclei(genA)
	genB := genA
	genB.Seed = cfg.Seed + 1
	cell := cfg.Space.Size().X / cbrtCeil(cfg.NucleiCount)
	genB.Offset = geom.V(0.22*cell, 0.16*cell, 0.12*cell)
	s.MeshesB = datagen.Nuclei(genB)

	// Disjoint pair for nuclei-nuclei distance joins.
	gen1 := genA
	gen1.Count = cfg.NucleiCount
	gen1.Seed = cfg.Seed + 2
	s.Meshes1, s.Meshes2 = datagen.NucleiPair(gen1)

	// Tissue for nuclei-vessel joins.
	s.MeshesT, s.MeshesV = datagen.Tissue(datagen.TissueOptions{
		Nuclei: datagen.NucleiOptions{
			Count: cfg.NucleiCount, SubdivisionLevel: cfg.NucleiLevel,
			Space: cfg.Space, Seed: cfg.Seed + 3,
		},
		Vessels: datagen.VesselOptions{
			Count: cfg.VesselCount, Space: cfg.Space, Seed: cfg.Seed + 4,
			RingSegments: cfg.VesselRingSegments, PathPoints: cfg.VesselPathPoints,
		},
	})

	comp := ppvp.DefaultOptions()
	comp.Rounds = cfg.Rounds
	dopts := core.DatasetOptions{Compression: comp, Cuboids: cfg.Cuboids}

	var err error
	for _, d := range []struct {
		dst    **core.Dataset
		name   string
		meshes []*mesh.Mesh
	}{
		{&s.NucleiA, "nucleiA", s.MeshesA},
		{&s.NucleiB, "nucleiB", s.MeshesB},
		{&s.Nuclei1, "nuclei1", s.Meshes1},
		{&s.Nuclei2, "nuclei2", s.Meshes2},
		{&s.NucleiT, "nucleiT", s.MeshesT},
		{&s.Vessels, "vessels", s.MeshesV},
	} {
		*d.dst, err = s.Engine.BuildDataset(d.name, d.meshes, dopts)
		if err != nil {
			return nil, fmt.Errorf("bench: building %s: %w", d.name, err)
		}
	}
	s.BuildTime = time.Since(start)
	return s, nil
}

// Close releases engine resources.
func (s *Suite) Close() { s.Engine.Close() }

func cbrtCeil(n int) float64 {
	k := 1
	for k*k*k < n {
		k++
	}
	return float64(k)
}

// fprintf writes formatted output, ignoring nil writers.
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
