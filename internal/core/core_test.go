package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/mesh"
	"repro/internal/ppvp"
	"repro/internal/sdbms"
)

// testEngine returns a small engine suitable for unit tests.
func testEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(EngineOptions{CacheBytes: 64 << 20, Workers: 4, GPUWorkers: 2, GPUBatch: 512})
	t.Cleanup(e.Close)
	return e
}

// fastCompression keeps unit-test ingest quick: fewer rounds, smaller meshes.
func fastDatasetOptions() DatasetOptions {
	c := ppvp.DefaultOptions()
	c.Rounds = 6
	return DatasetOptions{Compression: c, Cuboids: 8, PartitionTargetFaces: 64}
}

// buildPair ingests two overlapping nuclei datasets (the "two segmentation
// algorithms" workload) — used for intersection joins.
func buildPair(t *testing.T, e *Engine) (*Dataset, *Dataset) {
	t.Helper()
	gen := datagen.NucleiOptions{Count: 12, SubdivisionLevel: 1, Seed: 21}
	a, err := e.BuildDataset("nucleiA", datagen.Nuclei(gen), fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	gen2 := gen
	gen2.Seed = 22
	gen2.Offset = geom.V(2.5, 1.5, 1)
	b, err := e.BuildDataset("nucleiB", datagen.Nuclei(gen2), fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// buildDisjointPair ingests two interior-disjoint nuclei datasets — the
// precondition for distance queries (see the core package doc).
func buildDisjointPair(t *testing.T, e *Engine) (*Dataset, *Dataset) {
	t.Helper()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(60, 60, 60)}
	ma, mb := datagen.NucleiPair(datagen.NucleiOptions{Count: 10, SubdivisionLevel: 1, Seed: 31, Space: space})
	a, err := e.BuildDataset("disjA", ma, fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.BuildDataset("disjB", mb, fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// groundTruth decodes every object at the highest LOD.
func decodeAll(t *testing.T, d *Dataset) []*mesh.Mesh {
	t.Helper()
	out := make([]*mesh.Mesh, d.Len())
	for i := range out {
		m, err := d.Tileset.Object(int64(i)).Comp.Decode(d.MaxLOD())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

// reference is the independent oracle for a (target, source) dataset pair:
// both datasets' objects, decoded at the highest LOD, loaded into sdbms — the
// []Triangle engine that shares no filter, cache, ladder or batch-kernel code
// with core.
type reference struct {
	targets, sources *sdbms.Engine
	// all holds targets then sources, for pairwise distances across the two.
	all *sdbms.Engine
}

func newReference(t *testing.T, target, source *Dataset) reference {
	t.Helper()
	load := func(ms []*mesh.Mesh) *sdbms.Engine {
		e, err := sdbms.New(ms)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ta := decodeAll(t, target)
	r := reference{targets: load(ta)}
	if source == target {
		r.sources, r.all = r.targets, r.targets // self-join: sdbms skips identical indices
		return r
	}
	tb := decodeAll(t, source)
	r.sources, r.all = load(tb), load(append(ta, tb...))
	return r
}

// dist is the exact distance between target i and source j.
func (r reference) dist(i, j int) float64 {
	if r.all == r.targets {
		return r.all.Distance(int64(i), int64(j))
	}
	return r.all.Distance(int64(i), int64(r.targets.Len()+j))
}

func (r reference) intersectJoin(t *testing.T) map[Pair]bool {
	t.Helper()
	ps, _, err := r.sources.IntersectJoin(r.targets)
	if err != nil {
		t.Fatal(err)
	}
	return refPairs(ps)
}

func (r reference) withinJoin(t *testing.T, dist float64) map[Pair]bool {
	t.Helper()
	ps, _, err := r.sources.WithinJoin(r.targets, dist)
	if err != nil {
		t.Fatal(err)
	}
	return refPairs(ps)
}

func refPairs(ps []sdbms.Pair) map[Pair]bool {
	m := make(map[Pair]bool, len(ps))
	for _, p := range ps {
		m[Pair{Target: p.Target, Source: p.Source}] = true
	}
	return m
}

func pairsToSet(ps []Pair) map[Pair]bool {
	m := make(map[Pair]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}

func sameSets(t *testing.T, name string, got []Pair, want map[Pair]bool) {
	t.Helper()
	gs := pairsToSet(got)
	if len(gs) != len(got) {
		t.Errorf("%s: duplicate pairs in result", name)
	}
	for p := range gs {
		if !want[p] {
			t.Errorf("%s: spurious pair %v", name, p)
		}
	}
	for p := range want {
		if !gs[p] {
			t.Errorf("%s: missing pair %v", name, p)
		}
	}
}

var allAccels = []Accel{BruteForce, AABB, Partition, GPU, PartitionGPU}

func TestIntersectJoinAllConfigsMatchBrute(t *testing.T) {
	e := testEngine(t)
	a, b := buildPair(t, e)
	want := newReference(t, a, b).intersectJoin(t)
	if len(want) == 0 {
		t.Fatal("workload produced no intersections; tests would be vacuous")
	}

	for _, paradigm := range []Paradigm{FR, FPR} {
		for _, accel := range allAccels {
			got, stats, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{Paradigm: paradigm, Accel: accel})
			if err != nil {
				t.Fatalf("%v/%v: %v", paradigm, accel, err)
			}
			sameSets(t, paradigm.String()+"/"+accel.String(), got, want)
			if stats.Results != int64(len(got)) {
				t.Errorf("%v/%v: stats.Results=%d len=%d", paradigm, accel, stats.Results, len(got))
			}
		}
	}
}

func TestWithinJoinAllConfigsMatchBrute(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)
	const dist = 12.0
	want := newReference(t, a, b).withinJoin(t, dist)
	if len(want) == 0 {
		t.Fatal("no within pairs; tests would be vacuous")
	}

	for _, paradigm := range []Paradigm{FR, FPR} {
		for _, accel := range allAccels {
			got, _, err := e.WithinJoin(context.Background(), a, b, dist, QueryOptions{Paradigm: paradigm, Accel: accel})
			if err != nil {
				t.Fatalf("%v/%v: %v", paradigm, accel, err)
			}
			sameSets(t, paradigm.String()+"/"+accel.String(), got, want)
		}
	}
}

func TestNNJoinAllConfigsMatchBrute(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)
	ref := newReference(t, a, b)

	wantDist := make([]float64, a.Len())
	for i := range wantDist {
		best := math.Inf(1)
		for j := 0; j < b.Len(); j++ {
			if d := ref.dist(i, j); d < best {
				best = d
			}
		}
		wantDist[i] = best
	}

	for _, paradigm := range []Paradigm{FR, FPR} {
		for _, accel := range allAccels {
			got, _, err := e.NNJoin(context.Background(), a, b, QueryOptions{Paradigm: paradigm, Accel: accel})
			if err != nil {
				t.Fatalf("%v/%v: %v", paradigm, accel, err)
			}
			if len(got) != a.Len() {
				t.Fatalf("%v/%v: %d results, want %d", paradigm, accel, len(got), a.Len())
			}
			for _, n := range got {
				if math.Abs(n.Dist-wantDist[n.Target]) > 1e-6 {
					t.Errorf("%v/%v: target %d NN dist %v, want %v",
						paradigm, accel, n.Target, n.Dist, wantDist[n.Target])
				}
			}
		}
	}
}

func TestKNNJoinMatchesBrute(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)
	ref := newReference(t, a, b)
	const k = 3

	got, _, err := e.KNNJoin(context.Background(), a, b, QueryOptions{Paradigm: FPR, Accel: AABB, K: k})
	if err != nil {
		t.Fatal(err)
	}
	perTarget := map[int64][]Neighbor{}
	for _, n := range got {
		perTarget[n.Target] = append(perTarget[n.Target], n)
	}
	for i := 0; i < a.Len(); i++ {
		dists := make([]float64, b.Len())
		for j := range dists {
			dists[j] = ref.dist(i, j)
		}
		ns := perTarget[int64(i)]
		if len(ns) != k {
			t.Fatalf("target %d: %d neighbors, want %d", i, len(ns), k)
		}
		// The engine's k distances must be the k smallest brute distances.
		sortFloats(dists)
		for r := 0; r < k; r++ {
			if math.Abs(ns[r].Dist-dists[r]) > 1e-6 {
				t.Errorf("target %d rank %d: dist %v, want %v", i, r, ns[r].Dist, dists[r])
			}
		}
	}
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

func TestIntersectJoinContainment(t *testing.T) {
	e := testEngine(t)
	// Object 0 of A contains object 0 of B; their surfaces never touch.
	big := mesh.Icosphere(10, 2)
	small := mesh.Icosphere(1, 2)
	far := mesh.Icosphere(1, 2)
	far.Translate(geom.V(50, 0, 0))

	a, err := e.BuildDataset("big", []*mesh.Mesh{big}, fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.BuildDataset("smalls", []*mesh.Mesh{small, far}, fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, paradigm := range []Paradigm{FR, FPR} {
		got, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{Paradigm: paradigm})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != (Pair{0, 0}) {
			t.Errorf("%v: got %v, want [(0,0)]", paradigm, got)
		}
		// Reverse direction: B's small object is inside A's big object.
		rev, _, err := e.IntersectJoin(context.Background(), b, a, QueryOptions{Paradigm: paradigm})
		if err != nil {
			t.Fatal(err)
		}
		if len(rev) != 1 || rev[0] != (Pair{0, 0}) {
			t.Errorf("%v reverse: got %v", paradigm, rev)
		}
	}
}

func TestSelfJoinSkipsSelf(t *testing.T) {
	e := testEngine(t)
	a, _ := buildPair(t, e)
	got, _, err := e.IntersectJoin(context.Background(), a, a, QueryOptions{Paradigm: FPR})
	if err != nil {
		t.Fatal(err)
	}
	// Nuclei within one dataset are disjoint by construction.
	if len(got) != 0 {
		t.Errorf("self intersect join returned %v", got)
	}

	ns, _, err := e.NNJoin(context.Background(), a, a, QueryOptions{Paradigm: FPR, Accel: AABB})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		if n.Target == n.Source {
			t.Errorf("object %d is its own nearest neighbor", n.Target)
		}
		if n.Dist <= 0 {
			t.Errorf("self-join NN dist %v for target %d", n.Dist, n.Target)
		}
	}
}

func TestLODSchedule(t *testing.T) {
	q := QueryOptions{}
	if got := q.lodSchedule(5, FR); len(got) != 1 || got[0] != 5 {
		t.Errorf("FR schedule = %v", got)
	}
	if got := q.lodSchedule(3, FPR); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("FPR default schedule = %v", got)
	}
	q.LODs = []int{1, 3}
	if got := q.lodSchedule(5, FPR); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("custom schedule = %v", got)
	}
	q.LODs = []int{9, -1, 2, 2}
	if got := q.lodSchedule(5, FPR); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("sanitized schedule = %v", got)
	}
}

func TestFPRPrunesAtLowLODs(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)
	_, stats, err := e.WithinJoin(context.Background(), a, b, 12, QueryOptions{Paradigm: FPR})
	if err != nil {
		t.Fatal(err)
	}
	var lowPruned int64
	for l := 0; l < len(stats.PairsPruned)-1; l++ {
		lowPruned += stats.PairsPruned[l]
	}
	if lowPruned == 0 {
		t.Error("FPR settled nothing below the highest LOD")
	}
	if stats.GeomTime == 0 || stats.DecodeTime == 0 || stats.FilterTime == 0 {
		t.Errorf("phase breakdown has zeros: %v", stats)
	}
}

func TestFPRBeatsFRInPairEvaluations(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)
	_, fr, err := e.WithinJoin(context.Background(), a, b, 12, QueryOptions{Paradigm: FR})
	if err != nil {
		t.Fatal(err)
	}
	_, fpr, err := e.WithinJoin(context.Background(), a, b, 12, QueryOptions{Paradigm: FPR})
	if err != nil {
		t.Fatal(err)
	}
	top := len(fr.PairsEvaluated) - 1
	if fpr.PairsEvaluated[top] >= fr.PairsEvaluated[top] {
		t.Errorf("FPR evaluated %d pairs at top LOD, FR %d — expected fewer",
			fpr.PairsEvaluated[top], fr.PairsEvaluated[top])
	}
}

func TestProfileLODs(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)
	lods, stats, err := e.ProfileLODs(context.Background(), a, b, WithinKind, 8, QueryOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lods) == 0 {
		t.Fatal("empty schedule")
	}
	top := minInt(a.MaxLOD(), b.MaxLOD())
	if lods[len(lods)-1] != top {
		t.Errorf("schedule %v does not end at top LOD %d", lods, top)
	}
	for i := 1; i < len(lods); i++ {
		if lods[i] <= lods[i-1] {
			t.Errorf("schedule not ascending: %v", lods)
		}
	}
	if stats == nil {
		t.Error("no sample stats")
	}

	// The profiled schedule must still produce exact results.
	want, _, err := e.WithinJoin(context.Background(), a, b, 12, QueryOptions{Paradigm: FPR})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e.WithinJoin(context.Background(), a, b, 12, QueryOptions{Paradigm: FPR, LODs: lods})
	if err != nil {
		t.Fatal(err)
	}
	sameSets(t, "profiled schedule", got, pairsToSet(want))
}

func TestDatasetBuildErrors(t *testing.T) {
	e := testEngine(t)
	if _, err := e.BuildDataset("empty", nil, fastDatasetOptions()); err == nil {
		t.Error("empty dataset accepted")
	}
	open := &mesh.Mesh{
		Vertices: []geom.Vec3{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0)},
		Faces:    []mesh.Face{{0, 1, 2}},
	}
	if _, err := e.BuildDataset("bad", []*mesh.Mesh{open}, fastDatasetOptions()); err == nil {
		t.Error("invalid mesh accepted")
	}
}

func TestDatasetAccessors(t *testing.T) {
	e := testEngine(t)
	a, _ := buildPair(t, e)
	if a.Len() != 12 {
		t.Errorf("Len = %d", a.Len())
	}
	if a.MaxLOD() < 1 {
		t.Errorf("MaxLOD = %d", a.MaxLOD())
	}
	entries := 0
	a.Tree().SearchIntersect(a.Tree().Bounds(), func(rtree.Entry) bool { entries++; return true })
	if entries != 12 {
		t.Errorf("tree holds %d entries", entries)
	}
	if a.CompressedBytes() <= 0 {
		t.Error("CompressedBytes <= 0")
	}
	if a.CompressStats.VerticesRemoved == 0 {
		t.Error("no compression stats aggregated")
	}
}

func TestEngineDist(t *testing.T) {
	e := testEngine(t)
	m1 := mesh.Icosphere(2, 2)
	m2 := mesh.Icosphere(2, 2)
	m2.Translate(geom.V(10, 0, 0))
	d1, err := e.BuildDataset("d1", []*mesh.Mesh{m1}, fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e.BuildDataset("d2", []*mesh.Mesh{m2}, fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := exactDistance(t, e, d1, 0, d2, 0, QueryOptions{Accel: AABB})
	// Two radius-2 spheres 10 apart: distance ≈ 6 (slightly more due to
	// faceting).
	if got < 5.9 || got > 6.2 {
		t.Errorf("Dist = %v, want ≈ 6", got)
	}
}

func TestParadigmAccelStrings(t *testing.T) {
	if FR.String() != "FR" || FPR.String() != "FPR" {
		t.Error("Paradigm strings")
	}
	wants := map[Accel]string{
		BruteForce: "brute", AABB: "aabb", Partition: "partition",
		GPU: "gpu", PartitionGPU: "partition+gpu", Accel(99): "unknown",
	}
	for a, w := range wants {
		if a.String() != w {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), w)
		}
	}
	if !PartitionGPU.UsesPartition() || AABB.UsesPartition() {
		t.Error("UsesPartition flags")
	}
}

func TestQueryCancellation(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)

	// Already-cancelled context: the join must fail fast with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := e.NNJoin(ctx, a, b, QueryOptions{Paradigm: FPR, Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_, _, err = e.WithinJoin(ctx, a, b, 12, QueryOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("within err = %v, want context.Canceled", err)
	}
	_, _, err = e.IntersectJoin(ctx, a, b, QueryOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("intersect err = %v, want context.Canceled", err)
	}

	// A nil context behaves like Background.
	if _, _, err := e.IntersectJoin(nil, a, b, QueryOptions{}); err != nil { //nolint:staticcheck
		t.Fatalf("nil ctx: %v", err)
	}
}

func TestKNNJoinPartitionAccel(t *testing.T) {
	// kNN through the sub-object index: partitioned filtering must return
	// the same k nearest objects as the whole-object path.
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)
	const k = 3
	want, _, err := e.KNNJoin(context.Background(), a, b, QueryOptions{Paradigm: FPR, Accel: AABB, K: k})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e.KNNJoin(context.Background(), a, b, QueryOptions{Paradigm: FPR, Accel: Partition, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("results: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Target != want[i].Target || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("result %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}
