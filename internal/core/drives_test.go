package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/mesh"
)

// driveFixture is the differential test's data: four dataset pairs chosen so
// every branch of the refine ladder has pairs in it.
type driveFixture struct {
	overlapA, overlapB *Dataset // surfaces intersect: face hits at low LODs
	nestA, nestB       *Dataset // MBB-nested: containment, and nesting without it
	distA, distB       *Dataset // interior-disjoint: the distance workload
}

// buildDriveFixture ingests the fixture with a partition target small enough
// that the Partition accelerators run their multi-group paths.
func buildDriveFixture(t *testing.T, e *Engine) driveFixture {
	t.Helper()
	opts := fastDatasetOptions()
	opts.PartitionTargetFaces = 16
	build := func(name string, ms []*mesh.Mesh) *Dataset {
		d, err := e.BuildDataset(name, ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	sphere := func(r float64, at geom.Vec3) *mesh.Mesh {
		m := mesh.Icosphere(r, 2)
		m.Translate(at)
		return m
	}
	var f driveFixture

	gen := datagen.NucleiOptions{Count: 12, SubdivisionLevel: 1, Seed: 21}
	f.overlapA = build("overlapA", datagen.Nuclei(gen))
	gen.Seed, gen.Offset = 22, geom.V(2.5, 1.5, 1)
	f.overlapB = build("overlapB", datagen.Nuclei(gen))

	// Two radius-10 solids; against them a small sphere strictly inside one
	// (containment, no face contact at any LOD), one inside the other's MBB
	// corner but outside the solid (MBB-nested, rejected only by the
	// top-LOD containment pass), one crossing a surface, and one far away.
	f.nestA = build("nestA", []*mesh.Mesh{sphere(10, geom.V(0, 0, 0)), sphere(10, geom.V(40, 0, 0))})
	f.nestB = build("nestB", []*mesh.Mesh{
		sphere(1, geom.V(0, 0, 0)),
		sphere(1, geom.V(46.5, 6.5, 6.5)),
		sphere(1, geom.V(9.5, 0, 0)),
		sphere(1, geom.V(0, 60, 0)),
	})

	// Interior-disjoint nuclei, plus one solid present in both datasets: its
	// two copies are at distance exactly 0 at every LOD, which is what makes
	// the dist == 0 join non-empty.
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(60, 60, 60)}
	ma, mb := datagen.NucleiPair(datagen.NucleiOptions{Count: 10, SubdivisionLevel: 1, Seed: 31, Space: space})
	f.distA = build("distA", append(ma, sphere(2, geom.V(80, 80, 80))))
	f.distB = build("distB", append(mb, sphere(2, geom.V(80, 80, 80))))
	return f
}

// driveCase is one join of the differential test.
type driveCase struct {
	name           string
	kind           QueryKind
	target, source *Dataset
	dist           float64 // WithinKind only
	k              int     // NNKind only
}

func (f driveFixture) cases() []driveCase {
	return []driveCase{
		{"intersect/overlap", IntersectKind, f.overlapA, f.overlapB, 0, 0},
		{"intersect/self", IntersectKind, f.overlapA, f.overlapA, 0, 0},
		{"intersect/nested", IntersectKind, f.nestA, f.nestB, 0, 0},
		{"intersect/nested-reversed", IntersectKind, f.nestB, f.nestA, 0, 0},
		{"within/0", WithinKind, f.distA, f.distB, 0, 0},
		{"within/2", WithinKind, f.distA, f.distB, 2, 0},
		{"within/12", WithinKind, f.distA, f.distB, 12, 0},
		{"within/self", WithinKind, f.distA, f.distA, 25, 0},
		{"knn/1", NNKind, f.distA, f.distB, 0, 1},
		{"knn/3", NNKind, f.distA, f.distB, 0, 3},
		{"knn/self", NNKind, f.distA, f.distA, 0, 2},
	}
}

// named returns the fixture's case of that name.
func (f driveFixture) named(name string) driveCase {
	for _, c := range f.cases() {
		if c.name == name {
			return c
		}
	}
	panic("no drive case " + name)
}

// run executes an intersect or within case under q.
func (c driveCase) run(e *Engine, q QueryOptions) ([]Pair, *Stats, error) {
	if c.kind == IntersectKind {
		return e.IntersectJoin(context.Background(), c.target, c.source, q)
	}
	return e.WithinJoin(context.Background(), c.target, c.source, c.dist, q)
}

// want is an intersect or within case's answer by the independent sdbms
// engine.
func (c driveCase) want(t *testing.T) map[Pair]bool {
	ref := newReference(t, c.target, c.source)
	if c.kind == IntersectKind {
		return ref.intersectJoin(t)
	}
	return ref.withinJoin(t, c.dist)
}

// wantNeighbors is a kNN case's answer by the independent sdbms engine:
// every source ranked by exact distance, ties by ID, self excluded in a
// self-join.
func (c driveCase) wantNeighbors(t *testing.T) []Neighbor {
	ref := newReference(t, c.target, c.source)
	var ns []Neighbor
	for ti := 0; ti < c.target.Len(); ti++ {
		var row []Neighbor
		for si := 0; si < c.source.Len(); si++ {
			if c.source == c.target && si == ti {
				continue
			}
			row = append(row, Neighbor{Target: int64(ti), Source: int64(si), Dist: ref.dist(ti, si)})
		}
		slices.SortFunc(row, func(a, b Neighbor) int {
			return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Source, b.Source))
		})
		ns = append(ns, row[:c.k]...)
	}
	return ns
}

// soundDegraded asserts the Degrade contract against the full answer: no
// invented pair, and every missing pair flagged uncertain.
func soundDegraded(t *testing.T, name string, got []Pair, st *Stats, want map[Pair]bool) {
	t.Helper()
	for _, p := range got {
		if !want[p] {
			t.Errorf("%s: degraded join invented pair %v", name, p)
		}
	}
	gotSet := pairSet(got)
	for p := range want {
		if !gotSet[p] && !uncertainCovers(st, p) {
			t.Errorf("%s: pair %v missing and not flagged uncertain", name, p)
		}
	}
}

// TestDrivesMatchReference is the one differential check behind "one join
// executor": every intersect, within and kNN case, under every accelerator,
// paradigm, scheduler and ladder shape (a nil ladder is the calibrated
// one), compared with sdbms — kNN neighbours, ranks and distances bit for
// bit.
func TestDrivesMatchReference(t *testing.T) {
	e := testEngine(t)
	f := buildDriveFixture(t, e)
	full := make([]int, f.overlapA.MaxLOD()+1)
	for i := range full {
		full[i] = i
	}
	ladders := [][]int{full, {0, len(full) - 1}, nil}
	scheds := []struct {
		par   Paradigm
		sched Sched
	}{{FR, SchedStatic}, {FPR, SchedStatic}, {FPR, SchedMargin}}

	for _, c := range f.cases() {
		var want map[Pair]bool
		var wantNs []Neighbor
		if c.kind == NNKind {
			wantNs = c.wantNeighbors(t)
		} else if want = c.want(t); len(want) == 0 && c.name != "intersect/self" {
			t.Fatalf("%s: reference answer is empty; the case would be vacuous", c.name)
		}
		for _, accel := range allAccels {
			for _, s := range scheds {
				for _, lods := range ladders {
					name := fmt.Sprintf("%s/%v/%v/%v/%v", c.name, accel, s.par, s.sched, lods)
					q := QueryOptions{Paradigm: s.par, Sched: s.sched, Accel: accel, LODs: lods}
					if c.kind == NNKind {
						q.K = c.k
						got, _, err := e.KNNJoin(context.Background(), c.target, c.source, q)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !reflect.DeepEqual(got, wantNs) {
							t.Errorf("%s: neighbours differ from sdbms\n got %v\nwant %v", name, got, wantNs)
						}
						continue
					}
					got, _, err := c.run(e, q)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sameSets(t, name, got, want)
				}
			}
		}
	}

	// The nested fixture is what it claims to be.
	nested := f.named("intersect/nested").want(t)
	if !nested[Pair{0, 0}] || nested[Pair{1, 1}] || !nested[Pair{0, 2}] {
		t.Errorf("nested fixture: reference answer %v lacks the contained pair, has the MBB-nested outsider, or lacks the crossing pair", nested)
	}

	// Degrade with two objects the quarantine refuses to decode: a partial
	// failure, reported soundly.
	t.Run("quarantined", func(t *testing.T) {
		c := f.named("intersect/overlap")
		want := c.want(t)
		var some Pair
		for p := range want {
			some = p
			break
		}
		e.Quarantine().Trip(blobOf(c.target, some.Target), "test trip")
		e.Quarantine().Trip(blobOf(c.source, (some.Source+1)%int64(c.source.Len())), "test trip")
		got, st, err := c.run(e, QueryOptions{OnError: Degrade, LODs: full})
		if err != nil {
			t.Fatal(err)
		}
		soundDegraded(t, "quarantined", got, st, want)
		if len(st.Uncertain) == 0 || len(st.Degraded) == 0 {
			t.Errorf("uncertain %v; degraded %v; want both non-empty", st.Uncertain, st.Degraded)
		}
		if _, _, err := c.run(e, QueryOptions{}); !errors.Is(err, ErrQuarantined) {
			t.Errorf("fail-fast err = %v, want ErrQuarantined", err)
		}
	})
}

// TestDrivesInjectedDecodeFault arms a decode fault that fails every decode
// on a cold cache: FailFast aborts with the injected error; Degrade keeps
// exactly what bounds alone prove and flags every other candidate uncertain.
func TestDrivesInjectedDecodeFault(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	// A fresh engine per run: the quarantine remembers failures, and the
	// second run must meet the fault itself, not the first run's breaker.
	run := func(policy ErrorPolicy) ([]Pair, *Stats, map[Pair]bool, error) {
		e := NewEngine(EngineOptions{CacheBytes: 64 << 20, Workers: 4, DecodeRetries: -1})
		defer e.Close()
		f := buildDriveFixture(t, e)
		c := f.named("within/12") // has filter-definite accepts and refine candidates
		want := c.want(t)
		e.Cache().Clear()
		faultinject.Arm(faultinject.PointCoreDecode, faultinject.Fault{Err: faultinject.ErrInjected})
		defer faultinject.Reset()
		got, st, err := c.run(e, QueryOptions{OnError: policy, ErrorBudget: -1})
		return got, st, want, err
	}

	if _, st, _, err := run(FailFast); !errors.Is(err, faultinject.ErrInjected) || st == nil {
		t.Errorf("fail-fast: err = %v (stats %v), want the injected error and the work done so far", err, st)
	}
	got, st, want, err := run(Degrade)
	if err != nil {
		t.Fatal(err)
	}
	soundDegraded(t, "degrade", got, st, want)
	if n := int64(len(got)); n == 0 || n > st.BoundsDecisive {
		t.Errorf("%d pairs returned with every decode failing, %d decided by bounds; want 0 < pairs ≤ decided", n, st.BoundsDecisive)
	}
	if len(st.Degraded) == 0 {
		t.Error("every decode failed, yet nothing degraded")
	}
}

// TestWithinZeroFindsTouchingObjects pins the other way two objects can be
// at distance exactly zero: not coincident surfaces (within/0 above) but one
// shared vertex. It checks the path of a zero bound from WithinJoin to the
// kernels under every accelerator; that no single face pair touching in a
// vertex is turned away under the seed a zero bound is squared to is geom's
// TestTouchingPairsUnderZeroBound (here five faces of each object meet in
// the vertex, and one found pair is enough).
func TestWithinZeroFindsTouchingObjects(t *testing.T) {
	e := testEngine(t)
	opts := fastDatasetOptions()
	opts.PartitionTargetFaces = 16
	sphere := func(at geom.Vec3) *mesh.Mesh {
		m := mesh.Icosphere(1, 2)
		m.Translate(at)
		return m
	}
	// The unit icosphere has a vertex on each axis: two of them a diameter
	// apart along x touch in that vertex, and in nothing else.
	a, err := e.BuildDataset("touchA", []*mesh.Mesh{sphere(geom.V(0, 0, 0)), sphere(geom.V(0, 30, 0))}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.BuildDataset("touchB", []*mesh.Mesh{sphere(geom.V(2, 0, 0)), sphere(geom.V(0, 30, 2.5))}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(t, a, b)
	want := ref.withinJoin(t, 0)
	if !want[Pair{0, 0}] || len(want) != 1 || ref.dist(0, 0) != 0 || len(ref.intersectJoin(t)) != 1 {
		t.Fatalf("fixture: reference within(0) = %v, distance %v; want the touching pair alone", want, ref.dist(0, 0))
	}
	for _, accel := range allAccels {
		for _, par := range []Paradigm{FR, FPR} {
			got, _, err := e.WithinJoin(context.Background(), a, b, 0, QueryOptions{Paradigm: par, Accel: accel})
			if err != nil {
				t.Fatal(err)
			}
			sameSets(t, fmt.Sprintf("within(0)/%v/%v", accel, par), got, want)
		}
	}
}
