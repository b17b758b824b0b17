package bench

import (
	"context"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ppvp"
)

// The ablations quantify the design choices DESIGN.md calls out: the
// quantization precision, the rounds-per-LOD granularity (the r of §4.4),
// the partition granularity, and the decode-cache budget.

// QuantAblationRow measures one quantization setting.
type QuantAblationRow struct {
	Bits       int
	Bytes      int
	VolumeErr  float64 // |V(quantized) - V(original)| / V(original)
	HausdorffU float64 // max vertex snap displacement (upper bound on error)
}

// AblationQuantBits compresses one representative nucleus at several
// quantization precisions, reporting size against geometric error.
func (s *Suite) AblationQuantBits(w io.Writer) ([]QuantAblationRow, error) {
	m := s.Meshes1[0]
	origVol := m.Volume()
	diag := m.Bounds().Diagonal()

	var rows []QuantAblationRow
	fprintf(w, "Ablation: quantization bits (one nucleus, %d faces)\n", m.NumFaces())
	for _, bits := range []int{8, 10, 12, 16, 20} {
		opts := ppvp.DefaultOptions()
		opts.Rounds = s.Cfg.Rounds
		opts.QuantBits = bits
		c, _, err := ppvp.Compress(m, opts)
		if err != nil {
			return nil, err
		}
		top, err := c.Decode(c.MaxLOD())
		if err != nil {
			return nil, err
		}
		// Max snap displacement: one grid cell diagonal.
		steps := float64(uint64(1)<<uint(bits)) - 1
		snap := diag / steps
		row := QuantAblationRow{
			Bits:       bits,
			Bytes:      c.TotalSize(),
			VolumeErr:  math.Abs(top.Volume()-origVol) / origVol,
			HausdorffU: snap,
		}
		rows = append(rows, row)
		fprintf(w, "  %2d bits: %6d B, volume error %.2e, max snap %.2e\n",
			row.Bits, row.Bytes, row.VolumeErr, row.HausdorffU)
	}
	return rows, nil
}

// RPLAblationRow measures one rounds-per-LOD setting.
type RPLAblationRow struct {
	RoundsPerLOD int
	NumLODs      int
	Latency      time.Duration
	Schedule     []int
}

// AblationRoundsPerLOD rebuilds the disjoint nuclei pair with 1, 2 and 3
// decimation rounds per LOD step and measures the profiled-FPR within-join
// latency. The paper's choice of 2 (r = 2) balances ladder length against
// the share of faces two consecutive LODs share.
func (s *Suite) AblationRoundsPerLOD(w io.Writer) ([]RPLAblationRow, error) {
	fprintf(w, "Ablation: rounds per LOD (WN-NN, profiled FPR)\n")
	var rows []RPLAblationRow
	for _, rpl := range []int{1, 2, 3} {
		comp := ppvp.DefaultOptions()
		comp.Rounds = s.Cfg.Rounds
		comp.RoundsPerLOD = rpl
		dopts := core.DatasetOptions{Compression: comp, Cuboids: s.Cfg.Cuboids}

		eng := core.NewEngine(core.EngineOptions{CacheBytes: s.Cfg.CacheBytes, Workers: s.Cfg.Workers})
		d1, err := eng.BuildDataset("abl1", s.Meshes1, dopts)
		if err != nil {
			eng.Close()
			return nil, err
		}
		d2, err := eng.BuildDataset("abl2", s.Meshes2, dopts)
		if err != nil {
			eng.Close()
			return nil, err
		}
		lods, _, err := eng.ProfileLODs(context.Background(), d1, d2, core.WithinKind, s.Cfg.WithinDist,
			core.QueryOptions{Workers: s.Cfg.Workers})
		if err != nil {
			eng.Close()
			return nil, err
		}
		eng.Cache().Clear()
		_, stats, err := eng.WithinJoin(context.Background(), d1, d2, s.Cfg.WithinDist,
			core.QueryOptions{Paradigm: core.FPR, LODs: lods, Workers: s.Cfg.Workers})
		eng.Close()
		if err != nil {
			return nil, err
		}
		row := RPLAblationRow{RoundsPerLOD: rpl, NumLODs: d1.MaxLOD() + 1, Latency: stats.Elapsed, Schedule: lods}
		rows = append(rows, row)
		fprintf(w, "  rpl=%d (%d LODs): %v, schedule %v\n",
			rpl, row.NumLODs, row.Latency.Round(time.Millisecond), lods)
	}
	return rows, nil
}

// PartitionAblationRow measures one partition granularity.
type PartitionAblationRow struct {
	TargetFaces int
	Groups      int
	Latency     time.Duration
}

// AblationPartitionGranularity sweeps the sub-object size on the WN-NV
// test: too-coarse partitions behave like single MBBs, too-fine ones pay
// group-management overhead.
func (s *Suite) AblationPartitionGranularity(w io.Writer) ([]PartitionAblationRow, error) {
	fprintf(w, "Ablation: partition granularity (WN-NV, FPR/partition)\n")
	var rows []PartitionAblationRow
	for _, target := range []int{64, 256, 1024} {
		comp := ppvp.DefaultOptions()
		comp.Rounds = s.Cfg.Rounds
		dopts := core.DatasetOptions{Compression: comp, Cuboids: s.Cfg.Cuboids, PartitionTargetFaces: target}

		eng := core.NewEngine(core.EngineOptions{CacheBytes: s.Cfg.CacheBytes, Workers: s.Cfg.Workers})
		dn, err := eng.BuildDataset("ablN", s.MeshesT, dopts)
		if err != nil {
			eng.Close()
			return nil, err
		}
		dv, err := eng.BuildDataset("ablV", s.MeshesV, dopts)
		if err != nil {
			eng.Close()
			return nil, err
		}
		_, stats, err := eng.WithinJoin(context.Background(), dn, dv, s.Cfg.WithinDist,
			core.QueryOptions{Paradigm: core.FPR, Accel: core.Partition, Workers: s.Cfg.Workers})
		eng.Close()
		if err != nil {
			return nil, err
		}
		groups := 0
		for _, m := range s.MeshesV {
			groups += maxI(1, m.NumFaces()/target)
		}
		row := PartitionAblationRow{TargetFaces: target, Groups: groups, Latency: stats.Elapsed}
		rows = append(rows, row)
		fprintf(w, "  target=%4d faces (~%d vessel groups): %v\n",
			target, groups, row.Latency.Round(time.Millisecond))
	}
	return rows, nil
}

// CacheAblationRow measures one decode-cache budget.
type CacheAblationRow struct {
	Bytes      int64
	DecodeTime time.Duration
	Hits       int64
}

// AblationCacheBudget extends Table 2 into a sweep over cache sizes on the
// NN-NV test (the workload that re-decodes vessels the most).
func (s *Suite) AblationCacheBudget(w io.Writer) ([]CacheAblationRow, error) {
	fprintf(w, "Ablation: decode cache budget (NN-NV, FPR/aabb)\n")
	var rows []CacheAblationRow
	for _, budget := range []int64{-1, 64 << 10, 1 << 20, 64 << 20} {
		eng := core.NewEngine(core.EngineOptions{CacheBytes: budget, Workers: s.Cfg.Workers})
		dn, err := eng.BuildDataset("cabN", s.MeshesT, core.DatasetOptions{Cuboids: s.Cfg.Cuboids})
		if err != nil {
			eng.Close()
			return nil, err
		}
		dv, err := eng.BuildDataset("cabV", s.MeshesV, core.DatasetOptions{Cuboids: s.Cfg.Cuboids})
		if err != nil {
			eng.Close()
			return nil, err
		}
		_, stats, err := eng.NNJoin(context.Background(), dn, dv, core.QueryOptions{Paradigm: core.FPR, Accel: core.AABB, Workers: s.Cfg.Workers})
		eng.Close()
		if err != nil {
			return nil, err
		}
		row := CacheAblationRow{Bytes: budget, DecodeTime: stats.DecodeTime, Hits: stats.CacheHits}
		rows = append(rows, row)
		label := "disabled"
		if budget > 0 {
			label = byteLabel(budget)
		}
		fprintf(w, "  cache %-9s decode=%v hits=%d\n",
			label, row.DecodeTime.Round(time.Millisecond), row.Hits)
	}
	return rows, nil
}

func byteLabel(b int64) string {
	switch {
	case b >= 1<<20:
		return itoa(b>>20) + "MiB"
	case b >= 1<<10:
		return itoa(b>>10) + "KiB"
	default:
		return itoa(b) + "B"
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Ablations runs all four ablation studies.
func (s *Suite) Ablations(w io.Writer) error {
	if _, err := s.AblationQuantBits(w); err != nil {
		return err
	}
	if _, err := s.AblationRoundsPerLOD(w); err != nil {
		return err
	}
	if _, err := s.AblationPartitionGranularity(w); err != nil {
		return err
	}
	if _, err := s.AblationCacheBudget(w); err != nil {
		return err
	}
	return nil
}
