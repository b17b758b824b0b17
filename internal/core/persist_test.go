package core

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/storage"
)

func TestSaveLoadDatasetRoundTrip(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)

	dir := t.TempDir()
	if err := a.SaveDataset(dir); err != nil {
		t.Fatalf("SaveDataset: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "dataset.json")); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}

	loaded, err := e.LoadDataset(dir)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if loaded.Len() != a.Len() || loaded.MaxLOD() != a.MaxLOD() || loaded.Name != a.Name {
		t.Fatalf("metadata mismatch: %d/%d objects, maxLOD %d/%d",
			loaded.Len(), a.Len(), loaded.MaxLOD(), a.MaxLOD())
	}

	// Queries against the loaded dataset must match the original exactly.
	q := QueryOptions{Paradigm: FPR, Accel: Partition}
	want, _, err := e.WithinJoin(context.Background(), a, b, 12, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e.WithinJoin(context.Background(), loaded, b, 12, q)
	if err != nil {
		t.Fatal(err)
	}
	sameSets(t, "loaded dataset", got, pairsToSet(want))

	wantNN, _, err := e.NNJoin(context.Background(), a, b, q)
	if err != nil {
		t.Fatal(err)
	}
	gotNN, _, err := e.NNJoin(context.Background(), loaded, b, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantNN) != len(gotNN) {
		t.Fatalf("NN counts differ: %d vs %d", len(gotNN), len(wantNN))
	}
	for i := range wantNN {
		if gotNN[i].Target != wantNN[i].Target || gotNN[i].Dist != wantNN[i].Dist {
			t.Fatalf("NN result %d differs: %+v vs %+v", i, gotNN[i], wantNN[i])
		}
	}
}

func TestLoadDatasetErrors(t *testing.T) {
	e := testEngine(t)
	if _, err := e.LoadDataset(t.TempDir()); err == nil {
		t.Error("empty directory accepted")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "dataset.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LoadDataset(dir); err == nil {
		t.Error("corrupt manifest accepted")
	}
}

// TestLoadDatasetSalvage damages one record of a saved dataset and checks
// the strict load refuses it while the salvage load recovers the rest,
// reports the hole, and still answers queries.
func TestLoadDatasetSalvage(t *testing.T) {
	e := testEngine(t)
	a, b := buildPair(t, e)

	clean, _, err := e.IntersectJoin(context.Background(), a, b, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := a.SaveDataset(dir); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the first record's blob of one tile.
	tiles, err := filepath.Glob(filepath.Join(dir, "tile-*.bin"))
	if err != nil || len(tiles) == 0 {
		t.Fatalf("no tiles saved: %v", err)
	}
	data, err := os.ReadFile(tiles[0])
	if err != nil {
		t.Fatal(err)
	}
	data[8+12+10] ^= 0xFF
	if err := os.WriteFile(tiles[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := e.LoadDataset(dir); err == nil {
		t.Fatal("strict load accepted a damaged tile")
	}
	d2, rep, err := e.LoadDatasetSalvage(dir)
	if err != nil {
		t.Fatalf("salvage load: %v (report %+v)", err, rep)
	}
	if rep.Clean() || len(rep.ObjectsDropped) == 0 {
		t.Fatalf("report claims clean load: %+v", rep)
	}
	if len(d2.Tileset.Objects) != a.Len() {
		t.Fatalf("salvaged object slots = %d, want %d (manifest count)", len(d2.Tileset.Objects), a.Len())
	}
	var holes []int64
	for i, o := range d2.Tileset.Objects {
		if o == nil {
			holes = append(holes, int64(i))
		}
	}
	if len(holes) != 1 {
		t.Fatalf("holes = %v, want exactly one", holes)
	}
	if d2.Salvage != rep {
		t.Fatal("dataset does not keep the report of its salvage load")
	}
	if !slices.ContainsFunc(rep.ObjectsDropped, func(dr storage.DroppedObject) bool { return dr.ID == holes[0] }) {
		t.Fatalf("hole %d missing from the report %+v", holes[0], rep.ObjectsDropped)
	}
	if st := e.Quarantine().Stats(); st.Tracked != 0 {
		t.Fatalf("a hole has no blob, yet the breaker tracks %d keys", st.Tracked)
	}

	// A Degrade query answers with the clean pairs not touching the hole.
	got, st, err := e.IntersectJoin(context.Background(), d2, b, QueryOptions{OnError: Degrade})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Pair, 0, len(clean))
	for _, p := range clean {
		if p.Target != holes[0] {
			want = append(want, p)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("degrade pairs = %d, want %d (stats %v)", len(got), len(want), st)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
