package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/storage"
)

func TestSaveLoadDatasetRoundTrip(t *testing.T) {
	e := testEngine(t)
	a, b := buildDisjointPair(t, e)

	dir := t.TempDir()
	if err := a.SaveDataset(dir); err != nil {
		t.Fatalf("SaveDataset: %v", err)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 1 || files[0].Name() != storage.FileName {
		t.Fatalf("saved files: %v (err %v), want only %s", files, err, storage.FileName)
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
	if err := os.WriteFile(filepath.Join(dir, storage.FileName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LoadDataset(dir); err == nil {
		t.Error("corrupt dataset file accepted")
	}
	if _, _, err := e.LoadDatasetSalvage(dir); err == nil {
		t.Error("corrupt dataset file salvaged")
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

	// Flip one byte inside the first record's blob of the first tile: past
	// the file header (8 + its JSON + 4), the region header (8) and the
	// record header (12).
	path := filepath.Join(dir, storage.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8+int(binary.LittleEndian.Uint32(data[4:]))+4+8+12+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
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
		t.Fatalf("salvaged object slots = %d, want %d (saved count)", len(d2.Tileset.Objects), a.Len())
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

// sameDataset fails unless got is want by name and by every object's blob.
func sameDataset(t *testing.T, got, want *Dataset) {
	t.Helper()
	if got.Name != want.Name || got.Len() != want.Len() {
		t.Fatalf("loaded %q with %d objects, want %q with %d", got.Name, got.Len(), want.Name, want.Len())
	}
	same := 0
	for i, o := range got.Tileset.Objects {
		if o != nil && bytes.Equal(o.Comp.Bytes(), want.Tileset.Objects[i].Comp.Bytes()) {
			same++
		}
	}
	if same != want.Len() {
		t.Fatalf("%d of %d blobs are %q's", same, want.Len(), want.Name)
	}
}

// buildNuclei builds count nuclei of the given seed over the given number
// of cuboids.
func buildNuclei(t *testing.T, e *Engine, name string, seed int64, cuboids int) *Dataset {
	t.Helper()
	opts := fastDatasetOptions()
	opts.Cuboids = cuboids
	d, err := e.BuildDataset(name, datagen.Nuclei(datagen.NucleiOptions{Count: 40, SubdivisionLevel: 1, Seed: seed}), opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestResaveLoadsOnlyTheNewDataset: a save into a directory that holds an
// earlier save of another dataset over more cuboids loads as exactly the
// new dataset — none of the earlier save's objects mix in.
func TestResaveLoadsOnlyTheNewDataset(t *testing.T) {
	e := testEngine(t)
	dir := t.TempDir()
	if err := buildNuclei(t, e, "first", 1, 64).SaveDataset(dir); err != nil {
		t.Fatal(err)
	}
	second := buildNuclei(t, e, "second", 2, 8)
	if err := second.SaveDataset(dir); err != nil {
		t.Fatal(err)
	}
	d, err := e.LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameDataset(t, d, second)
}

// TestInterruptedSaveKeepsOldDataset: a save that stops before its rename
// leaves part of the new file under its temporary name; strict and salvage
// loads both return exactly the old dataset.
func TestInterruptedSaveKeepsOldDataset(t *testing.T) {
	e := testEngine(t)
	dir, other := t.TempDir(), t.TempDir()
	old := buildNuclei(t, e, "old", 1, 64)
	if err := old.SaveDataset(dir); err != nil {
		t.Fatal(err)
	}
	if err := buildNuclei(t, e, "new", 2, 8).SaveDataset(other); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(other, storage.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, storage.FileName+".tmp-42"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := e.LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameDataset(t, d, old)
	d, rep, err := e.LoadDatasetSalvage(dir)
	if err != nil || !rep.Clean() {
		t.Fatalf("salvage load: err = %v, report = %+v", err, rep)
	}
	sameDataset(t, d, old)
}
