package bench

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// One suite shared across the package's tests — building it is expensive.
var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = NewSuite(QuickConfig())
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func TestSuiteDatasets(t *testing.T) {
	s := testSuite(t)
	for _, d := range []*core.Dataset{s.NucleiA, s.NucleiB, s.Nuclei1, s.Nuclei2, s.NucleiT, s.Vessels} {
		if d.Len() == 0 {
			t.Fatalf("dataset %s is empty", d.Name)
		}
		if d.MaxLOD() < 1 {
			t.Errorf("dataset %s has MaxLOD %d", d.Name, d.MaxLOD())
		}
	}
	if s.Vessels.Len() != s.Cfg.VesselCount {
		t.Errorf("vessels = %d, want %d", s.Vessels.Len(), s.Cfg.VesselCount)
	}
	if s.BuildTime <= 0 {
		t.Error("no build time recorded")
	}
}

func TestRunCellConsistentAcrossConfigs(t *testing.T) {
	s := testSuite(t)
	// Every paradigm/accelerator combination of one test must agree on the
	// result count.
	want := -1
	for _, p := range []core.Paradigm{core.FR, core.FPR} {
		for _, a := range []core.Accel{core.BruteForce, core.AABB, core.Partition} {
			cell, err := s.RunCell(WNNN, p, a)
			if err != nil {
				t.Fatal(err)
			}
			if want == -1 {
				want = cell.Results
			} else if cell.Results != want {
				t.Errorf("%v/%v: %d results, want %d", p, a, cell.Results, want)
			}
			if cell.Latency <= 0 {
				t.Errorf("%v/%v: no latency", p, a)
			}
		}
	}
	if want <= 0 {
		t.Error("WN-NN produced no results; workload too sparse")
	}
}

func TestTable1Printing(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	cells, err := s.Table1(&buf, []TestID{INTNN}, []core.Accel{core.BruteForce})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 { // FR + FPR
		t.Fatalf("cells = %d", len(cells))
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "INT-NN", "FR", "FPR"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	SpeedupSummary(&buf2, cells)
	if !strings.Contains(buf2.String(), "INT-NN") {
		t.Errorf("speedup summary missing test: %s", buf2.String())
	}
}

func TestFig9Shape(t *testing.T) {
	s := testSuite(t)
	rows := s.Fig9(nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Total <= 0 || r.Raw <= r.Total {
			t.Errorf("%s: compression did not shrink (%d raw, %d compressed)", r.Dataset, r.Raw, r.Total)
		}
		var sum float64
		for _, p := range r.Portions {
			if p < 0 || p > 1 {
				t.Errorf("%s: portion %v out of range", r.Dataset, p)
			}
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: portions sum to %v", r.Dataset, sum)
		}
	}
}

func TestFig10Fractions(t *testing.T) {
	s := testSuite(t)
	cell, err := s.RunCell(NNNN, core.FPR, core.BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	rows := Fig10(nil, []Cell{cell})
	if len(rows) != 1 {
		t.Fatal("no rows")
	}
	total := rows[0].FilterFrac + rows[0].DecodeFrac + rows[0].GeomFrac
	if total < 0.999 || total > 1.001 {
		t.Errorf("fractions sum to %v", total)
	}
}

func TestFig11Halving(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Fig11(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.FacesPerRound) < 3 {
			t.Fatalf("%s: too few rounds: %v", r.Dataset, r.FacesPerRound)
		}
		for i := 1; i < len(r.FacesPerRound); i++ {
			if r.FacesPerRound[i] > r.FacesPerRound[i-1] {
				t.Errorf("%s: faces increased at round %d: %v", r.Dataset, i, r.FacesPerRound)
			}
		}
	}
}

func TestFig12SchedulesValid(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Fig12(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AllTests) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Schedule) == 0 {
			t.Errorf("%v: empty schedule", r.Test)
		}
		for l := range r.Evaluated {
			if r.Pruned[l] > r.Evaluated[l] {
				t.Errorf("%v: pruned %d > evaluated %d at LOD %d", r.Test, r.Pruned[l], r.Evaluated[l], l)
			}
		}
	}
}

func TestTable2CacheHelps(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Table2(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Compare decode *counts* — wall times jitter at this scale.
		if r.DecodesCached > r.DecodesNoCache {
			t.Errorf("%v: cached run decoded %d times, uncached %d", r.Test, r.DecodesCached, r.DecodesNoCache)
		}
	}
	// At least the vessel-involving joins must show cache hits.
	if rows[1].HitsCached == 0 && rows[3].HitsCached == 0 {
		t.Error("no cache hits on vessel joins")
	}
}

func TestFig13ResultsAgree(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Fig13(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The SDBMS and both 3DPro paradigms must return the same answers.
		if r.SDBMSN != r.FRN || r.FRN != r.FPRN {
			t.Errorf("%v: result counts diverge: sdbms=%d fr=%d fpr=%d", r.Test, r.SDBMSN, r.FRN, r.FPRN)
		}
	}
}

func TestStatsShape(t *testing.T) {
	s := testSuite(t)
	ds, err := s.Stats(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NucleiProtruding < 0.9 {
		t.Errorf("nuclei protruding %v, want >= 0.9 (paper: 0.99)", ds.NucleiProtruding)
	}
	if ds.VesselProtruding >= ds.NucleiProtruding {
		t.Errorf("vessels (%v) should protrude less than nuclei (%v)", ds.VesselProtruding, ds.NucleiProtruding)
	}
	if ds.Ratio <= 1 {
		t.Errorf("compression ratio %v", ds.Ratio)
	}
	if ds.NucleusCompressTime <= 0 || ds.VesselCompressTime <= 0 {
		t.Error("compression costs not measured")
	}
}
