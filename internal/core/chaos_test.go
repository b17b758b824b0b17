package core_test

// The chaos campaign is the acceptance drill for the partial-failure layer:
// with tile corruption, probabilistic ppvp decode errors, and unconditional
// core decode panics armed at once, the process must survive, a FailFast
// join must name a failing object, a Degrade join must return exactly the
// clean run's certain pairs minus the failed objects, and /readyz must
// report degraded (not dead). It lives in package core_test so it can drive
// the HTTP server against the same engine without an import cycle.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
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
const chaosSpec = "storage.tile=corrupt,ppvp.decode=prob:0.05:error,core.decode=panic"

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

	// FailFast surfaces the first failure, naming the object.
	_, _, ffErr := e2.IntersectJoin(ctx, a2, b2, core.QueryOptions{})
	if ffErr == nil {
		t.Fatal("fail-fast join succeeded under armed faults")
	}
	if !strings.Contains(ffErr.Error(), "object ") {
		t.Fatalf("fail-fast error does not name an object: %v", ffErr)
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
