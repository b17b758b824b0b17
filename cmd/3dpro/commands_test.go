package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ppvp"
)

// writeNuclei writes count nuclei of the given seed as OFF files into a
// fresh directory and returns it.
func writeNuclei(t *testing.T, count int, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	for i, m := range datagen.Nuclei(datagen.NucleiOptions{Count: count, Seed: seed, SubdivisionLevel: 1}) {
		var buf bytes.Buffer
		if err := m.WriteOFF(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("n-%03d.off", i)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestReingestReplacesDataset: a second ingest into the same -out
// directory, over fewer cuboids, loads as exactly the second dataset.
func TestReingestReplacesDataset(t *testing.T) {
	first, second := writeNuclei(t, 12, 1), writeNuclei(t, 12, 2)
	out := t.TempDir()
	if err := cmdIngest([]string{"-in", first, "-out", out, "-name", "first", "-cuboids", "64"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdIngest([]string{"-in", second, "-out", out, "-name", "second", "-cuboids", "8"}); err != nil {
		t.Fatal(err)
	}

	e := core.NewEngine(core.EngineOptions{})
	defer e.Close()
	got, err := loadDataset(e, "ignored", out)
	if err != nil {
		t.Fatal(err)
	}
	meshes, err := readOFFDir(second)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DatasetOptions{Cuboids: 8, Compression: ppvp.DefaultOptions()}
	opts.Compression.Rounds = 10
	want, err := e.BuildDataset("second", meshes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Len() != want.Len() {
		t.Fatalf("loaded %q with %d objects, want %q with %d", got.Name, got.Len(), want.Name, want.Len())
	}
	for i, o := range want.Tileset.Objects {
		if !bytes.Equal(got.Tileset.Objects[i].Comp.Bytes(), o.Comp.Bytes()) {
			t.Fatalf("object %d is not the second ingest's blob", i)
		}
	}
}
