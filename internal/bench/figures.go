package bench

import (
	"context"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/ppvp"
)

// Fig9Row is the per-LOD share of the compressed representation for one
// dataset (paper's Fig. 9).
type Fig9Row struct {
	Dataset  string
	Portions []float64 // fraction of compressed bytes per LOD, sums to 1
	Total    int64     // compressed bytes
	Raw      int64     // uncompressed mesh bytes (24 B/vertex + 12 B/face)
}

// Fig9 aggregates compressed section sizes per LOD over the nuclei and
// vessel datasets.
func (s *Suite) Fig9(w io.Writer) []Fig9Row {
	rows := []Fig9Row{
		s.fig9Row("nuclei", s.Nuclei1, s.Meshes1),
		s.fig9Row("vessels", s.Vessels, s.MeshesV),
	}
	fprintf(w, "Fig 9: portion of compressed space per LOD\n")
	for _, r := range rows {
		fprintf(w, "  %-8s total=%dB raw=%dB ratio=%.1fx portions=", r.Dataset, r.Total, r.Raw, float64(r.Raw)/float64(r.Total))
		for lod, p := range r.Portions {
			fprintf(w, " lod%d:%.1f%%", lod, 100*p)
		}
		fprintf(w, "\n")
	}
	return rows
}

func (s *Suite) fig9Row(name string, d *core.Dataset, meshes []*mesh.Mesh) Fig9Row {
	var sizes []int64
	var total int64
	for _, o := range d.Tileset.Objects {
		ls := o.Comp.LODSizes()
		if len(sizes) < len(ls) {
			grown := make([]int64, len(ls))
			copy(grown, sizes)
			sizes = grown
		}
		for i, b := range ls {
			sizes[i] += int64(b)
			total += int64(b)
		}
	}
	var raw int64
	for _, m := range meshes {
		raw += int64(m.NumVertices())*24 + int64(m.NumFaces())*12
	}
	row := Fig9Row{Dataset: name, Total: d.CompressedBytes(), Raw: raw}
	for _, b := range sizes {
		row.Portions = append(row.Portions, float64(b)/float64(total))
	}
	return row
}

// BreakdownRow is one bar of the paper's Fig. 10: the filter / decode /
// geometry split of one Table 1 cell.
type BreakdownRow struct {
	Cell
	FilterFrac float64
	DecodeFrac float64
	GeomFrac   float64
}

// Fig10 derives the execution-time breakdown from Table 1 cells.
func Fig10(w io.Writer, cells []Cell) []BreakdownRow {
	fprintf(w, "Fig 10: execution time breakdown (filter/decode/geometry, %% of accounted time)\n")
	rows := make([]BreakdownRow, 0, len(cells))
	for _, c := range cells {
		total := c.Stats.FilterTime + c.Stats.DecodeTime + c.Stats.GeomTime
		r := BreakdownRow{Cell: c}
		if total > 0 {
			r.FilterFrac = float64(c.Stats.FilterTime) / float64(total)
			r.DecodeFrac = float64(c.Stats.DecodeTime) / float64(total)
			r.GeomFrac = float64(c.Stats.GeomTime) / float64(total)
		}
		rows = append(rows, r)
		fprintf(w, "  %-8s %-4s %-14s filter=%5.1f%% decode=%5.1f%% geom=%5.1f%%\n",
			c.Test, c.Paradigm, c.Accel, 100*r.FilterFrac, 100*r.DecodeFrac, 100*r.GeomFrac)
	}
	return rows
}

// Fig11Row is the remaining-face series of one representative object
// (paper's Fig. 11: faces halve roughly every two rounds).
type Fig11Row struct {
	Dataset       string
	FacesPerRound []int
}

// Fig11 recompresses one representative nucleus and one vessel, reporting
// the face count after each decimation round.
func (s *Suite) Fig11(w io.Writer) ([]Fig11Row, error) {
	opts := ppvp.DefaultOptions()
	opts.Rounds = s.Cfg.Rounds

	var rows []Fig11Row
	for _, src := range []struct {
		name string
		m    *mesh.Mesh
	}{
		{"nucleus", s.Meshes1[0]},
		{"vessel", s.MeshesV[0]},
	} {
		_, st, err := ppvp.Compress(src.m, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig11Row{Dataset: src.name, FacesPerRound: st.FacesPerRound})
	}
	fprintf(w, "Fig 11: remaining faces vs decimation rounds\n")
	for _, r := range rows {
		fprintf(w, "  %-8s", r.Dataset)
		for round, f := range r.FacesPerRound {
			fprintf(w, " r%d:%d", round, f)
		}
		fprintf(w, "\n")
	}
	return rows, nil
}

// Fig12Row is the per-LOD evaluated/pruned profile of one test (paper's
// Fig. 12) plus the LOD schedule the §4.4 rule selects from it.
type Fig12Row struct {
	Test      TestID
	Evaluated []int64
	Pruned    []int64
	Schedule  []int
}

// Fig12 profiles every test on a single-cuboid sample and derives the LOD
// schedules (threshold = 25 %, i.e. r = 2).
func (s *Suite) Fig12(w io.Writer) ([]Fig12Row, error) {
	fprintf(w, "Fig 12: object pairs evaluated/pruned per LOD (single-cuboid profile, threshold 25%%)\n")
	var rows []Fig12Row
	for _, test := range AllTests {
		target, source := s.datasets(test)
		s.Engine.Cache().Clear()
		lods, stats, err := s.Engine.ProfileLODs(context.Background(), target, source, test.Kind(), s.Cfg.WithinDist,
			core.QueryOptions{Workers: s.Cfg.Workers})
		if err != nil {
			return nil, err
		}
		r := Fig12Row{Test: test, Evaluated: stats.PairsEvaluated, Pruned: stats.PairsPruned, Schedule: lods}
		rows = append(rows, r)
		fprintf(w, "  %-8s schedule=%v", test, lods)
		for l := range r.Evaluated {
			if r.Evaluated[l] > 0 {
				fprintf(w, " lod%d:%d/%d(%.0f%%)", l, r.Pruned[l], r.Evaluated[l], 100*stats.PrunedFraction(l))
			}
		}
		fprintf(w, "\n")
	}
	return rows, nil
}

// Table2Row is one row of the paper's Table 2: decode time with and without
// the LRU decode cache.
type Table2Row struct {
	Test           TestID
	DecodeCached   time.Duration
	DecodeNoCache  time.Duration
	HitsCached     int64
	DecodesCached  int64
	DecodesNoCache int64
}

// Table2 reruns the distance joins under FPR/brute with the decode cache
// enabled and disabled, comparing decode times.
func (s *Suite) Table2(w io.Writer) ([]Table2Row, error) {
	tests := []TestID{WNNN, WNNV, NNNN, NNNV}
	fprintf(w, "Table 2: decoding time with/without the LRU decode cache\n")

	// A cache-less engine shares nothing with the suite's engine but reads
	// the same datasets.
	noCache := core.NewEngine(core.EngineOptions{CacheBytes: -1, Workers: s.Cfg.Workers})
	defer noCache.Close()

	var rows []Table2Row
	for _, test := range tests {
		target, source := s.datasets(test)
		q := core.QueryOptions{Paradigm: core.FPR, Accel: core.AABB, Workers: s.Cfg.Workers}

		s.Engine.Cache().Clear()
		var cachedStats, plainStats *core.Stats
		var err error
		switch test.Kind() {
		case core.WithinKind:
			_, cachedStats, err = s.Engine.WithinJoin(context.Background(), target, source, s.Cfg.WithinDist, q)
			if err == nil {
				_, plainStats, err = noCache.WithinJoin(context.Background(), target, source, s.Cfg.WithinDist, q)
			}
		default:
			_, cachedStats, err = s.Engine.NNJoin(context.Background(), target, source, q)
			if err == nil {
				_, plainStats, err = noCache.NNJoin(context.Background(), target, source, q)
			}
		}
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Test:           test,
			DecodeCached:   cachedStats.DecodeTime,
			DecodeNoCache:  plainStats.DecodeTime,
			HitsCached:     cachedStats.CacheHits,
			DecodesCached:  cachedStats.Decodes,
			DecodesNoCache: plainStats.Decodes,
		}
		rows = append(rows, row)
		fprintf(w, "  %-8s cached=%v (hits=%d)  nocache=%v  reduction=%.1fx\n",
			test, row.DecodeCached.Round(time.Millisecond), row.HitsCached,
			row.DecodeNoCache.Round(time.Millisecond),
			ratio(row.DecodeNoCache, row.DecodeCached))
	}
	return rows, nil
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
