package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mesh"
	"repro/internal/ppvp"
	"repro/internal/storage"
)

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	kind := fs.String("kind", "nuclei", "nuclei or vessels")
	count := fs.Int("count", 50, "object count")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "data", "output directory")
	level := fs.Int("level", 2, "nuclei subdivision level")
	fs.Parse(args)

	var meshes []*mesh.Mesh
	switch *kind {
	case "nuclei":
		meshes = datagen.Nuclei(datagen.NucleiOptions{Count: *count, Seed: *seed, SubdivisionLevel: *level})
	case "vessels":
		meshes = datagen.Vessels(datagen.VesselOptions{Count: *count, Seed: *seed})
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for i, m := range meshes {
		path := filepath.Join(*out, fmt.Sprintf("%s-%05d.off", *kind, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := m.WriteOFF(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d %s to %s\n", len(meshes), *kind, *out)
	return nil
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "data", "directory of OFF meshes")
	out := fs.String("out", "compressed", "output directory for .3dp blobs")
	rounds := fs.Int("rounds", 10, "decimation rounds")
	policy := fs.String("policy", "ppvp", "ppvp (protruding-only) or ppmc (any vertex)")
	fs.Parse(args)

	opts := ppvp.DefaultOptions()
	opts.Rounds = *rounds
	switch *policy {
	case "ppvp":
		opts.Policy = ppvp.PruneProtruding
	case "ppmc":
		opts.Policy = ppvp.PruneAny
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	paths, err := filepath.Glob(filepath.Join(*in, "*.off"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no .off files in %s", *in)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	var rawTotal, compTotal int64
	start := time.Now()
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		m, err := mesh.ReadOFF(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		c, _, err := ppvp.Compress(m, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		dst := filepath.Join(*out, strings.TrimSuffix(filepath.Base(path), ".off")+".3dp")
		if err := os.WriteFile(dst, c.Bytes(), 0o644); err != nil {
			return err
		}
		rawTotal += int64(m.NumVertices())*24 + int64(m.NumFaces())*12
		compTotal += int64(c.TotalSize())
	}
	fmt.Printf("compressed %d meshes in %v: %d B -> %d B (%.1fx)\n",
		len(paths), time.Since(start).Round(time.Millisecond),
		rawTotal, compTotal, float64(rawTotal)/float64(compTotal))
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", ".3dp blob")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	c, err := ppvp.FromBytes(blob)
	if err != nil {
		return err
	}
	fmt.Printf("policy:   %s\n", c.PolicyUsed())
	fmt.Printf("LODs:     %d (0..%d)\n", c.NumLODs(), c.MaxLOD())
	fmt.Printf("rounds:   %d\n", c.NumRounds())
	fmt.Printf("MBB:      %v\n", c.MBB())
	fmt.Printf("size:     %d B total\n", c.TotalSize())
	for lod, b := range c.LODSizes() {
		fmt.Printf("  lod %d section: %d B\n", lod, b)
	}
	for lod := 0; lod <= c.MaxLOD(); lod++ {
		m, err := c.Decode(lod)
		if err != nil {
			return err
		}
		fmt.Printf("  lod %d mesh: %d vertices, %d faces, volume %.4g\n",
			lod, m.NumVertices(), m.NumFaces(), m.Volume())
	}
	return nil
}

func cmdDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	in := fs.String("in", "", ".3dp blob")
	out := fs.String("out", "", "output file")
	lod := fs.Int("lod", -1, "LOD to decode (-1 = highest)")
	format := fs.String("format", "off", "output format: off, ply, or wkb")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	c, err := ppvp.FromBytes(blob)
	if err != nil {
		return err
	}
	l := *lod
	if l < 0 {
		l = c.MaxLOD()
	}
	m, err := c.Decode(l)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	switch *format {
	case "off":
		err = m.WriteOFF(f)
	case "ply":
		err = m.WritePLY(f)
	case "wkb":
		err = m.WriteWKB(f)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	fmt.Printf("decoded LOD %d: %d vertices, %d faces -> %s (%s)\n", l, m.NumVertices(), m.NumFaces(), *out, *format)
	return nil
}

// cmdIngest builds a persistent dataset directory (one dataset file) from
// a directory of OFF meshes. A re-ingest into the same -out replaces it.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	in := fs.String("in", "data", "directory of OFF meshes")
	out := fs.String("out", "dataset", "output dataset directory")
	name := fs.String("name", "dataset", "dataset name")
	rounds := fs.Int("rounds", 10, "decimation rounds")
	cuboids := fs.Int("cuboids", 64, "space-partition cuboids")
	fs.Parse(args)

	e := core.NewEngine(core.EngineOptions{})
	defer e.Close()
	meshes, err := readOFFDir(*in)
	if err != nil {
		return err
	}
	if len(meshes) == 0 {
		return fmt.Errorf("no .off files in %s", *in)
	}
	opts := core.DatasetOptions{Cuboids: *cuboids}
	opts.Compression = ppvp.DefaultOptions()
	opts.Compression.Rounds = *rounds
	start := time.Now()
	d, err := e.BuildDataset(*name, meshes, opts)
	if err != nil {
		return err
	}
	if err := d.SaveDataset(*out); err != nil {
		return err
	}
	fmt.Printf("ingested %d objects into %s in %v (%d B compressed, %d LODs)\n",
		d.Len(), *out, time.Since(start).Round(time.Millisecond), d.CompressedBytes(), d.MaxLOD()+1)
	return nil
}

// readOFFDir reads every .off mesh in dir in file-name order; a directory
// without any yields no meshes and no error.
func readOFFDir(dir string) ([]*mesh.Mesh, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.off"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var meshes []*mesh.Mesh
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		m, err := mesh.ReadOFF(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		meshes = append(meshes, m)
	}
	return meshes, nil
}

// loadDataset ingests a directory of .3dp blobs or .off meshes as a
// dataset, or loads a persisted dataset directory (storage.FileName).
func loadDataset(e *core.Engine, name, dir string) (*core.Dataset, error) {
	if _, err := os.Stat(filepath.Join(dir, storage.FileName)); err == nil {
		return e.LoadDataset(dir)
	}
	meshes, err := readOFFDir(dir)
	if err != nil {
		return nil, err
	}
	blobs, _ := filepath.Glob(filepath.Join(dir, "*.3dp"))
	sort.Strings(blobs)
	for _, path := range blobs {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		c, err := ppvp.FromBytes(blob)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		m, err := c.Decode(c.MaxLOD())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		meshes = append(meshes, m)
	}
	if len(meshes) == 0 {
		return nil, fmt.Errorf("no .off or .3dp files in %s", dir)
	}
	return e.BuildDataset(name, meshes, core.DatasetOptions{})
}

func parseParadigm(s string) (core.Paradigm, error) {
	switch strings.ToLower(s) {
	case "fr":
		return core.FR, nil
	case "fpr":
		return core.FPR, nil
	}
	return 0, fmt.Errorf("unknown paradigm %q", s)
}

func parseAccel(s string) (core.Accel, error) {
	switch strings.ToLower(s) {
	case "brute":
		return core.BruteForce, nil
	case "aabb":
		return core.AABB, nil
	case "partition":
		return core.Partition, nil
	case "gpu":
		return core.GPU, nil
	case "partition+gpu", "partitiongpu":
		return core.PartitionGPU, nil
	}
	return 0, fmt.Errorf("unknown accelerator %q", s)
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	kind := fs.String("kind", "intersect", "intersect, within, or nn")
	targetDir := fs.String("target", "", "target dataset directory")
	sourceDir := fs.String("source", "", "source dataset directory")
	dist := fs.Float64("dist", 1, "distance for within queries")
	paradigmStr := fs.String("paradigm", "fpr", "fr or fpr")
	accelStr := fs.String("accel", "aabb", "brute, aabb, partition, gpu, partition+gpu")
	limit := fs.Int("limit", 20, "max result rows to print (0 = all)")
	fs.Parse(args)
	if *targetDir == "" || *sourceDir == "" {
		return fmt.Errorf("-target and -source are required")
	}

	paradigm, err := parseParadigm(*paradigmStr)
	if err != nil {
		return err
	}
	accel, err := parseAccel(*accelStr)
	if err != nil {
		return err
	}

	e := core.NewEngine(core.EngineOptions{})
	defer e.Close()
	target, err := loadDataset(e, "target", *targetDir)
	if err != nil {
		return err
	}
	source, err := loadDataset(e, "source", *sourceDir)
	if err != nil {
		return err
	}
	q := core.QueryOptions{Paradigm: paradigm, Accel: accel}

	switch *kind {
	case "intersect":
		pairs, stats, err := e.IntersectJoin(context.Background(), target, source, q)
		if err != nil {
			return err
		}
		printPairs(pairs, *limit)
		fmt.Printf("%d pairs; %s\n", len(pairs), stats)
	case "within":
		pairs, stats, err := e.WithinJoin(context.Background(), target, source, *dist, q)
		if err != nil {
			return err
		}
		printPairs(pairs, *limit)
		fmt.Printf("%d pairs; %s\n", len(pairs), stats)
	case "nn":
		ns, stats, err := e.NNJoin(context.Background(), target, source, q)
		if err != nil {
			return err
		}
		for i, n := range ns {
			if *limit > 0 && i >= *limit {
				fmt.Printf("  ... %d more\n", len(ns)-i)
				break
			}
			fmt.Printf("  target %d -> source %d (dist %.6g)\n", n.Target, n.Source, n.Dist)
		}
		fmt.Printf("%d results; %s\n", len(ns), stats)
	default:
		return fmt.Errorf("unknown query kind %q", *kind)
	}
	return nil
}

func printPairs(pairs []core.Pair, limit int) {
	for i, p := range pairs {
		if limit > 0 && i >= limit {
			fmt.Printf("  ... %d more\n", len(pairs)-i)
			return
		}
		fmt.Printf("  target %d ∩ source %d\n", p.Target, p.Source)
	}
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	kind := fs.String("kind", "within", "intersect, within, or nn")
	targetDir := fs.String("target", "", "target dataset directory")
	sourceDir := fs.String("source", "", "source dataset directory")
	dist := fs.Float64("dist", 1, "distance for within queries")
	fs.Parse(args)
	if *targetDir == "" || *sourceDir == "" {
		return fmt.Errorf("-target and -source are required")
	}

	var qk core.QueryKind
	switch *kind {
	case "intersect":
		qk = core.IntersectKind
	case "within":
		qk = core.WithinKind
	case "nn":
		qk = core.NNKind
	default:
		return fmt.Errorf("unknown query kind %q", *kind)
	}

	e := core.NewEngine(core.EngineOptions{})
	defer e.Close()
	target, err := loadDataset(e, "target", *targetDir)
	if err != nil {
		return err
	}
	source, err := loadDataset(e, "source", *sourceDir)
	if err != nil {
		return err
	}
	lods, stats, err := e.ProfileLODs(context.Background(), target, source, qk, *dist, core.QueryOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("recommended LOD schedule: %v\n", lods)
	for l := range stats.PairsEvaluated {
		if stats.PairsEvaluated[l] > 0 {
			fmt.Printf("  lod %d: pruned %d of %d (%.0f%%)\n",
				l, stats.PairsPruned[l], stats.PairsEvaluated[l], 100*stats.PrunedFraction(l))
		}
	}
	return nil
}
