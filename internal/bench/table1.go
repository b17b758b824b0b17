package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
)

// TestID names the five join tests of the paper's Table 1.
type TestID int

const (
	INTNN TestID = iota // intersection join, nuclei vs nuclei
	WNNN                // within join, nuclei vs nuclei
	WNNV                // within join, nuclei vs vessels
	NNNN                // nearest-neighbor join, nuclei vs nuclei
	NNNV                // nearest-neighbor join, nuclei vs vessels
)

// AllTests lists the Table 1 tests in paper order.
var AllTests = []TestID{INTNN, WNNN, WNNV, NNNN, NNNV}

func (t TestID) String() string {
	switch t {
	case INTNN:
		return "INT-NN"
	case WNNN:
		return "WN-NN"
	case WNNV:
		return "WN-NV"
	case NNNN:
		return "NN-NN"
	case NNNV:
		return "NN-NV"
	default:
		return "?"
	}
}

// Kind returns the query kind of the test.
func (t TestID) Kind() core.QueryKind {
	switch t {
	case INTNN:
		return core.IntersectKind
	case WNNN, WNNV:
		return core.WithinKind
	default:
		return core.NNKind
	}
}

// datasets returns the (target, source) pair of a test.
func (s *Suite) datasets(t TestID) (*core.Dataset, *core.Dataset) {
	switch t {
	case INTNN:
		return s.NucleiA, s.NucleiB
	case WNNN, NNNN:
		return s.Nuclei1, s.Nuclei2
	default:
		return s.NucleiT, s.Vessels
	}
}

// Cell is one Table 1 measurement.
type Cell struct {
	Test     TestID
	Paradigm core.Paradigm
	Accel    core.Accel
	Latency  time.Duration
	Results  int
	Stats    *core.Stats
}

// RunCell executes one test under one paradigm/accelerator combination.
// The decode cache is cleared first so cells are independent. FPR cells run
// under the engine's default margin scheduler, whose online calibrator
// derives each ladder, so no profiled schedule is pinned.
func (s *Suite) RunCell(test TestID, paradigm core.Paradigm, accel core.Accel) (Cell, error) {
	target, source := s.datasets(test)
	q := core.QueryOptions{Paradigm: paradigm, Accel: accel, Workers: s.Cfg.Workers, Exec: s.Exec}
	s.Engine.Cache().Clear()

	var (
		stats *core.Stats
		n     int
		err   error
	)
	switch test.Kind() {
	case core.IntersectKind:
		var pairs []core.Pair
		pairs, stats, err = s.Engine.IntersectJoin(context.Background(), target, source, q)
		n = len(pairs)
	case core.WithinKind:
		var pairs []core.Pair
		pairs, stats, err = s.Engine.WithinJoin(context.Background(), target, source, s.Cfg.WithinDist, q)
		n = len(pairs)
	default:
		var ns []core.Neighbor
		ns, stats, err = s.Engine.NNJoin(context.Background(), target, source, q)
		n = len(ns)
	}
	if err != nil {
		return Cell{}, fmt.Errorf("bench: %v/%v/%v: %w", test, paradigm, accel, err)
	}
	return Cell{
		Test: test, Paradigm: paradigm, Accel: accel,
		Latency: stats.Elapsed, Results: n, Stats: stats,
	}, nil
}

// Table1 runs the full grid of the paper's Table 1 — every test × {FR, FPR}
// × the given accelerators — and prints the latency matrix. It returns all
// cells (also consumed by Fig. 10's breakdown).
func (s *Suite) Table1(w io.Writer, tests []TestID, accels []core.Accel) ([]Cell, error) {
	if len(tests) == 0 {
		tests = AllTests
	}
	if len(accels) == 0 {
		accels = []core.Accel{core.BruteForce, core.Partition, core.AABB, core.GPU, core.PartitionGPU}
	}

	fprintf(w, "Table 1: execution time of joins (this run; paper reports seconds on its testbed)\n")
	fprintf(w, "%-8s %-4s", "Test", "Par")
	for _, a := range accels {
		fprintf(w, " %14s", a)
	}
	fprintf(w, "\n")

	var cells []Cell
	for _, test := range tests {
		for _, paradigm := range []core.Paradigm{core.FR, core.FPR} {
			fprintf(w, "%-8s %-4s", test, paradigm)
			for _, accel := range accels {
				cell, err := s.RunCell(test, paradigm, accel)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell)
				fprintf(w, " %14s", cell.Latency.Round(time.Millisecond))
			}
			fprintf(w, "\n")
		}
	}
	return cells, nil
}

// SpeedupSummary prints FPR-over-FR speedups per test/accelerator from a
// set of cells (the paper's headline ratios).
func SpeedupSummary(w io.Writer, cells []Cell) {
	type key struct {
		t TestID
		a core.Accel
	}
	fr := map[key]time.Duration{}
	fpr := map[key]time.Duration{}
	var order []key
	for _, c := range cells {
		k := key{c.Test, c.Accel}
		switch c.Paradigm {
		case core.FR:
			if _, ok := fr[k]; !ok {
				order = append(order, k)
			}
			fr[k] = c.Latency
		case core.FPR:
			fpr[k] = c.Latency
		}
	}
	fprintf(w, "\nFPR speedup over FR:\n")
	for _, k := range order {
		f, ok1 := fr[k]
		p, ok2 := fpr[k]
		if !ok1 || !ok2 || p == 0 {
			continue
		}
		fprintf(w, "  %-8s %-14s %.2fx\n", k.t, k.a, float64(f)/float64(p))
	}
}
