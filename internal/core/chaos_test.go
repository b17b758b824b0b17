package core_test

// The chaos campaign is the acceptance drill for the partial-failure layer:
// with tile corruption, probabilistic ppvp decode errors, and unconditional
// core decode panics armed at once, the process must survive, a FailFast
// query of every kind must name a failing object, a Degrade intersect join
// must return exactly the clean run's certain pairs minus the failed
// objects, a Degrade within or kNN join an answer the clean one vouches
// for, a point or range query the clean IDs minus the failed objects, and
// /readyz must report degraded (not dead). It lives in package core_test so it can drive
// the HTTP server against the same engine without an import cycle.

import (
	"context"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/ppvp"
	"repro/internal/server"
	"repro/internal/storage"
)

// chaosSpec is the acceptance fault mix, in the operator spec grammar.
const chaosSpec = chaosSpecNoPanic + ",core.decode=panic"

// chaosSpecNoPanic is the mix without the core decode panics, which leave a
// Degrade kNN join nothing to rank.
const chaosSpecNoPanic = "storage.tile=corrupt,ppvp.decode=prob:0.05:error"

func chaosEngine() *core.Engine {
	return core.NewEngine(core.EngineOptions{CacheBytes: 64 << 20, Workers: 4})
}

// chaosDatasetOptions uses a single cuboid so each dataset is one tile: the
// corrupt fault's three byte flips then damage a bounded number of records
// and salvage always keeps a usable remainder.
func chaosDatasetOptions() core.DatasetOptions {
	comp := ppvp.DefaultOptions()
	comp.Rounds = 6
	return core.DatasetOptions{Compression: comp, Cuboids: 1, PartitionTargetFaces: 64}
}

func buildChaosPair(t *testing.T, e *core.Engine) (*core.Dataset, *core.Dataset) {
	t.Helper()
	gen := datagen.NucleiOptions{Count: 12, SubdivisionLevel: 1, Seed: 21}
	a, err := e.BuildDataset("chaosA", datagen.Nuclei(gen), chaosDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	gen.Seed = 22
	gen.Offset = geom.V(2.5, 1.5, 1)
	b, err := e.BuildDataset("chaosB", datagen.Nuclei(gen), chaosDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestChaosCampaign(t *testing.T) {
	runChaosCampaign(t, 1)
}

// TestChaosCampaignExtended repeats the campaign with fresh seeds for the
// duration in _3DPRO_CHAOS (make chaos-short sets 20s); unset it skips.
func TestChaosCampaignExtended(t *testing.T) {
	budget := os.Getenv("_3DPRO_CHAOS")
	if budget == "" {
		t.Skip("set _3DPRO_CHAOS to a duration (e.g. 20s) to run the extended campaign")
	}
	d, err := time.ParseDuration(budget)
	if err != nil {
		t.Fatalf("_3DPRO_CHAOS = %q: %v", budget, err)
	}
	deadline := time.Now().Add(d)
	for seed := int64(2); time.Now().Before(deadline); seed++ {
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosCampaign(t, seed)
		})
		if !ok {
			return
		}
	}
}

// chaosHoles returns the IDs that did not survive the salvage load and
// checks each one is accounted for in the report, which the dataset keeps.
func chaosHoles(t *testing.T, d *core.Dataset, rep *storage.SalvageReport) map[int64]bool {
	t.Helper()
	if d.Salvage != rep {
		t.Fatalf("%q does not keep the report of its salvage load", d.Name)
	}
	reported := make(map[int64]bool, len(rep.ObjectsDropped))
	for _, dr := range rep.ObjectsDropped {
		reported[dr.ID] = true
	}
	holes := map[int64]bool{}
	for i, o := range d.Tileset.Objects {
		if o == nil {
			holes[int64(i)] = true
			if !reported[int64(i)] {
				t.Fatalf("hole %d of %q missing from the salvage report %+v", i, d.Name, rep.ObjectsDropped)
			}
		}
	}
	return holes
}

// chaosProbe is one point or range query of the campaign.
type chaosProbe struct {
	name string
	run  func(ctx context.Context, e *core.Engine, d *core.Dataset, q core.QueryOptions) ([]int64, *core.Stats, error)
}

// chaosProbes returns a point query at the centre of d's first object and a
// range query over the lower half of d's space, where some MBBs lie wholly
// inside the box and others need their geometry.
func chaosProbes(d *core.Dataset) []chaosProbe {
	p := d.Tileset.Object(0).MBB().Center()
	box := d.Tree().Bounds()
	box.Max.X = (box.Min.X + box.Max.X) / 2
	return []chaosProbe{
		{"point", func(ctx context.Context, e *core.Engine, d *core.Dataset, q core.QueryOptions) ([]int64, *core.Stats, error) {
			return e.ContainingObjects(ctx, d, p, q)
		}},
		{"range", func(ctx context.Context, e *core.Engine, d *core.Dataset, q core.QueryOptions) ([]int64, *core.Stats, error) {
			return e.RangeQuery(ctx, d, box, q)
		}},
	}
}

func runChaosCampaign(t *testing.T, seed int64) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ctx := context.Background()

	// Clean phase: build, query, and persist without faults.
	e1 := chaosEngine()
	a1, b1 := buildChaosPair(t, e1)
	clean, _, err := e1.IntersectJoin(ctx, a1, b1, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) == 0 {
		t.Fatal("clean workload produced no pairs")
	}
	// The distance joins are self-joins of A: its nuclei never intersect
	// one another, the precondition of distance queries.
	cleanWithin, _, err := e1.WithinJoin(ctx, a1, a1, chaosWithinDist, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cleanKNN, _, err := e1.KNNJoin(ctx, a1, a1, core.QueryOptions{K: chaosK})
	if err != nil {
		t.Fatal(err)
	}
	if len(cleanWithin) == 0 || len(cleanKNN) == 0 {
		t.Fatalf("clean distance joins are empty: within %d pairs, kNN %d neighbours", len(cleanWithin), len(cleanKNN))
	}
	probes := chaosProbes(a1)
	cleanIDs := make([][]int64, len(probes))
	for i, pr := range probes {
		if cleanIDs[i], _, err = pr.run(ctx, e1, a1, core.QueryOptions{}); err != nil {
			t.Fatalf("clean %s: %v", pr.name, err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := a1.SaveDataset(dirA); err != nil {
		t.Fatal(err)
	}
	if err := b1.SaveDataset(dirB); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	// Chaos phase: arm the acceptance fault mix and salvage-load into a
	// fresh engine. Every tile read is corrupted, so both loads must drop
	// objects yet still come up.
	faultinject.Seed(seed)
	if err := faultinject.Parse(chaosSpec); err != nil {
		t.Fatal(err)
	}
	e2 := chaosEngine()
	t.Cleanup(e2.Close)
	a2, repA, err := e2.LoadDatasetSalvage(dirA)
	if err != nil {
		t.Fatalf("salvage load A: %v (report %+v)", err, repA)
	}
	b2, repB, err := e2.LoadDatasetSalvage(dirB)
	if err != nil {
		t.Fatalf("salvage load B: %v (report %+v)", err, repB)
	}
	if repA.Clean() || len(repA.ObjectsDropped) == 0 {
		t.Fatalf("corrupt tile fault left report A clean: %+v", repA)
	}
	if len(a2.Tileset.Objects) != a1.Len() || len(b2.Tileset.Objects) != b1.Len() {
		t.Fatalf("salvage lost track of the object count: %d/%d, want %d/%d",
			len(a2.Tileset.Objects), len(b2.Tileset.Objects), a1.Len(), b1.Len())
	}
	// The authoritative drop set is the holes: a corrupted record reports a
	// garbage ID, but the loader's report must still cover every hole.
	badA, badB := chaosHoles(t, a2, repA), chaosHoles(t, b2, repB)

	// FailFast surfaces the first failure of every join kind, naming the
	// object.
	for name, join := range map[string]func(q core.QueryOptions) (*core.Stats, error){
		"intersect": func(q core.QueryOptions) (*core.Stats, error) {
			_, st, err := e2.IntersectJoin(ctx, a2, b2, q)
			return st, err
		},
		"within": func(q core.QueryOptions) (*core.Stats, error) {
			_, st, err := e2.WithinJoin(ctx, a2, a2, chaosWithinDist, q)
			return st, err
		},
		"knn": func(q core.QueryOptions) (*core.Stats, error) {
			q.K = chaosK
			_, st, err := e2.KNNJoin(ctx, a2, a2, q)
			return st, err
		},
	} {
		if _, err := join(core.QueryOptions{}); err == nil || !strings.Contains(err.Error(), "object ") {
			t.Fatalf("fail-fast %s: err = %v, want one naming an object", name, err)
		}
	}

	// The probe ladder: FailFast names an object too; Degrade answers a
	// subset of the clean IDs, and each clean ID it drops is a hole or
	// uncertain.
	for i, pr := range probes {
		if _, _, err := pr.run(ctx, e2, a2, core.QueryOptions{}); err == nil || !strings.Contains(err.Error(), "object ") {
			t.Fatalf("fail-fast %s: err = %v, want one naming an object", pr.name, err)
		}
		got, st, err := pr.run(ctx, e2, a2, core.QueryOptions{OnError: core.Degrade, ErrorBudget: -1})
		if err != nil {
			t.Fatalf("degrade %s died: %v", pr.name, err)
		}
		for _, id := range got {
			if !slices.Contains(cleanIDs[i], id) || slices.Contains(st.UncertainIDs, id) {
				t.Fatalf("degrade %s returned %d: clean %v, uncertain %v", pr.name, id, cleanIDs[i], st.UncertainIDs)
			}
		}
		for _, id := range cleanIDs[i] {
			if !slices.Contains(got, id) && !badA[id] && !slices.Contains(st.UncertainIDs, id) {
				t.Fatalf("degrade %s dropped %d silently: got %v, clean %v, uncertain %v", pr.name, id, got, cleanIDs[i], st.UncertainIDs)
			}
		}
	}

	// Degrade survives and answers with exactly the certain pairs: the
	// clean answer minus every pair touching a dropped or failed object.
	got, st, err := e2.IntersectJoin(ctx, a2, b2,
		core.QueryOptions{OnError: core.Degrade, ErrorBudget: -1})
	if err != nil {
		t.Fatalf("degrade join died: %v", err)
	}
	for _, d := range st.Degraded {
		switch d.Dataset {
		case a2.Name:
			badA[d.Object] = true
		case b2.Name:
			badB[d.Object] = true
		default:
			t.Fatalf("degraded entry names unknown dataset: %+v", d)
		}
	}
	want := make([]core.Pair, 0, len(clean))
	for _, p := range clean {
		if !badA[p.Target] && !badB[p.Source] {
			want = append(want, p)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("certain pairs = %d, want %d (clean %d, degraded %d)\ngot  %v\nwant %v\ndegraded %+v\nuncertain %v\ndroppedA %v droppedB %v",
			len(got), len(want), len(clean), len(st.Degraded), got, want,
			st.Degraded, st.Uncertain, repA.ObjectsDropped, repB.ObjectsDropped)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("certain[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	chaosDistanceJoins(t, e2, a2, chaosHoles(t, a2, repA), cleanWithin, cleanKNN)
	// Every decode panics above, so no kNN target there ranks anything.
	// Without the panics, on a fresh engine, salvage holes and the
	// probabilistic decode errors are the failures, and targets rank.
	faultinject.Reset()
	if err := faultinject.Parse(chaosSpecNoPanic); err != nil {
		t.Fatal(err)
	}
	e3 := chaosEngine()
	t.Cleanup(e3.Close)
	a3, repA3, err := e3.LoadDatasetSalvage(dirA)
	if err != nil {
		t.Fatalf("salvage load A without panics: %v (report %+v)", err, repA3)
	}
	chaosDistanceJoins(t, e3, a3, chaosHoles(t, a3, repA3), cleanWithin, cleanKNN)

	// Salvage dropped objects (report A is not clean), so /readyz must
	// report degraded while staying in rotation.
	srv := server.NewWithConfig(e2, server.Config{})
	srv.AddDataset(a2)
	srv.AddDataset(b2)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "dropped by salvage") {
		t.Fatalf("/readyz = %d %q, want 200 degraded", resp.StatusCode, body)
	}
}

// chaosWithinDist and chaosK are the campaign's within distance and
// neighbour count.
const (
	chaosWithinDist = 15
	chaosK          = 2
)

// chaosDistanceJoins runs the campaign's Degrade within and kNN self-joins
// of d and checks each against its clean answer. Within: no pair outside
// the clean answer, and every clean pair it drops touches a hole or a
// degraded object or is uncertain. kNN: every target that is not itself a
// hole or degraded, has no uncertain entry, and whose clean neighbours
// include no hole or degraded object has exactly its clean neighbours,
// distances to the bit.
func chaosDistanceJoins(t *testing.T, e *core.Engine, d *core.Dataset, holes map[int64]bool, cleanWithin []core.Pair, cleanKNN []core.Neighbor) {
	t.Helper()
	ctx := context.Background()
	q := core.QueryOptions{OnError: core.Degrade, ErrorBudget: -1}
	bad := func(st *core.Stats) map[int64]bool {
		b := maps.Clone(holes)
		for _, de := range st.Degraded {
			b[de.Object] = true
		}
		return b
	}
	uncertain := func(st *core.Stats, p core.Pair) bool {
		return slices.Contains(st.Uncertain, p) || slices.Contains(st.Uncertain, core.Pair{Target: p.Target, Source: -1})
	}

	got, st, err := e.WithinJoin(ctx, d, d, chaosWithinDist, q)
	if err != nil {
		t.Fatalf("degrade within join died: %v", err)
	}
	badW := bad(st)
	for _, p := range got {
		if !slices.Contains(cleanWithin, p) {
			t.Fatalf("degrade within join invented pair %v", p)
		}
	}
	for _, p := range cleanWithin {
		if !slices.Contains(got, p) && !badW[p.Target] && !badW[p.Source] && !uncertain(st, p) {
			t.Fatalf("degrade within join dropped %v silently (degraded %+v, uncertain %v)", p, st.Degraded, st.Uncertain)
		}
	}

	ns, st, err := e.KNNJoin(ctx, d, d, core.QueryOptions{OnError: core.Degrade, ErrorBudget: -1, K: chaosK})
	if err != nil {
		t.Fatalf("degrade kNN join died: %v", err)
	}
	badK := bad(st)
	byTarget := func(ns []core.Neighbor) map[int64][]core.Neighbor {
		m := map[int64][]core.Neighbor{}
		for _, n := range ns {
			m[n.Target] = append(m[n.Target], n)
		}
		return m
	}
	gotK := byTarget(ns)
	for target, clean := range byTarget(cleanKNN) {
		if badK[target] || slices.ContainsFunc(st.Uncertain, func(p core.Pair) bool { return p.Target == target }) ||
			slices.ContainsFunc(clean, func(n core.Neighbor) bool { return badK[n.Source] }) {
			continue
		}
		if !slices.Equal(gotK[target], clean) {
			t.Fatalf("degrade kNN target %d: neighbours %v, clean %v (degraded %+v, uncertain %v)",
				target, gotK[target], clean, st.Degraded, st.Uncertain)
		}
	}
}
