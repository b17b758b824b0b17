package storage

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/ppvp"
)

func compress(t *testing.T, m *mesh.Mesh) *ppvp.Compressed {
	t.Helper()
	c, _, err := ppvp.Compress(m, ppvp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cuboidBox returns the spatial extent of cuboid i of g.
func cuboidBox(g Grid, i int) geom.Box3 {
	size := g.Space.Size()
	d := geom.V(size.X/float64(g.Nx), size.Y/float64(g.Ny), size.Z/float64(g.Nz))
	min := g.Space.Min.Add(geom.V(float64(i%g.Nx)*d.X, float64(i/g.Nx%g.Ny)*d.Y, float64(i/(g.Nx*g.Ny))*d.Z))
	return geom.Box3{Min: min, Max: min.Add(d)}
}

func TestGridBasics(t *testing.T) {
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(100, 100, 100)}
	g := NewGrid(space, 27)
	n := g.Nx * g.Ny * g.Nz
	if n < 8 || n > 64 {
		t.Errorf("%d cuboids, want near 27", n)
	}

	// Every point maps into range and its cuboid box contains it.
	pts := []geom.Vec3{
		{X: 0, Y: 0, Z: 0}, {X: 99.9, Y: 99.9, Z: 99.9}, {X: 50, Y: 1, Z: 99},
		{X: -5, Y: 50, Z: 50}, {X: 105, Y: 50, Z: 50}, // out of range → clamped
	}
	for _, p := range pts {
		i := g.CuboidOf(p)
		if i < 0 || i >= n {
			t.Fatalf("CuboidOf(%v) = %d out of range", p, i)
		}
		box := cuboidBox(g, i)
		clamped := space.ClosestPoint(p)
		if !box.Expand(1e-9).ContainsPoint(clamped) {
			t.Fatalf("cuboid %d box %v does not contain %v", i, box, clamped)
		}
	}

	// Cuboid boxes tile the space.
	var vol float64
	for i := 0; i < n; i++ {
		vol += cuboidBox(g, i).Volume()
	}
	if diff := vol - space.Volume(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("cuboid volumes sum to %v, space is %v", vol, space.Volume())
	}
}

func TestGridDegenerate(t *testing.T) {
	g := NewGrid(geom.EmptyBox(), 10)
	if g.Nx < 1 || g.Ny < 1 || g.Nz < 1 {
		t.Error("degenerate grid has no cuboids")
	}
	if i := g.CuboidOf(geom.V(1, 2, 3)); i < 0 || i >= g.Nx*g.Ny*g.Nz {
		t.Errorf("CuboidOf on degenerate grid = %d", i)
	}
	if z := NewGrid(geom.Box3{}, 0); z.Nx < 1 || z.Ny < 1 || z.Nz < 1 {
		t.Error("zero-cuboid request not clamped")
	}
}

func TestTilesetGrouping(t *testing.T) {
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(40, 40, 40)}
	grid := NewGrid(space, 8)

	var comps []*ppvp.Compressed
	centers := []geom.Vec3{{X: 5, Y: 5, Z: 5}, {X: 35, Y: 5, Z: 5}, {X: 5, Y: 35, Z: 35}, {X: 6, Y: 6, Z: 6}}
	for _, c := range centers {
		m := mesh.Icosphere(2, 2)
		m.Translate(c)
		comps = append(comps, compress(t, m))
	}
	ts := NewTileset(grid, comps)

	if len(ts.Objects) != 4 {
		t.Fatalf("objects = %d", len(ts.Objects))
	}
	for i, o := range ts.Objects {
		if o.ID != int64(i) {
			t.Errorf("object %d has ID %d", i, o.ID)
		}
		if ts.Object(o.ID) != o {
			t.Error("Object lookup broken")
		}
	}
	if ts.Object(-1) != nil || ts.Object(99) != nil {
		t.Error("out-of-range lookup should return nil")
	}
	// Objects at (5,5,5) and (6,6,6) share a cuboid; (35,5,5) does not.
	if ts.Objects[0].Cuboid != ts.Objects[3].Cuboid {
		t.Error("nearby objects in different cuboids")
	}
	if ts.Objects[0].Cuboid == ts.Objects[1].Cuboid {
		t.Error("distant objects share a cuboid")
	}
	if ts.CompressedBytes() <= 0 {
		t.Error("CompressedBytes not positive")
	}
}

func TestSaveLoadTiles(t *testing.T) {
	dir := t.TempDir()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(40, 40, 40)}
	grid := NewGrid(space, 8)

	var comps []*ppvp.Compressed
	for i := 0; i < 6; i++ {
		m := mesh.Icosphere(1.5, 2)
		m.Translate(geom.V(float64(i)*6+3, 20, 20))
		comps = append(comps, compress(t, m))
	}
	ts := NewTileset(grid, comps)
	if err := ts.SaveTiles(dir); err != nil {
		t.Fatalf("SaveTiles: %v", err)
	}

	got, err := LoadTiles(dir, grid)
	if err != nil {
		t.Fatalf("LoadTiles: %v", err)
	}
	if _, err := LoadTiles(dir, NewGrid(space, 27)); err == nil {
		t.Error("LoadTiles accepted a grid the tiles were not saved over")
	}
	if len(got.Objects) != len(ts.Objects) {
		t.Fatalf("loaded %d objects, want %d", len(got.Objects), len(ts.Objects))
	}
	for i := range ts.Objects {
		a, b := ts.Objects[i], got.Objects[i]
		if a.ID != b.ID || a.Cuboid != b.Cuboid {
			t.Fatalf("object %d metadata mismatch", i)
		}
		if a.MBB() != b.MBB() {
			t.Fatalf("object %d MBB mismatch", i)
		}
		// Decoded geometry identical.
		ma, err := a.Comp.Decode(0)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := b.Comp.Decode(0)
		if err != nil {
			t.Fatal(err)
		}
		if ma.NumFaces() != mb.NumFaces() {
			t.Fatalf("object %d decode mismatch", i)
		}
	}
}

func TestLoadTilesRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	grid := NewGrid(geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(10, 10, 10)}, 1)

	if err := os.WriteFile(filepath.Join(dir, FileName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTiles(dir, grid); !errors.Is(err, ErrBadTile) {
		t.Errorf("garbage dataset file: err = %v, want ErrBadTile", err)
	}
}

// TestLoadTilesEmptyDir: a directory with no dataset file holds no saved
// dataset, so loading it is an error, not an empty tileset.
func TestLoadTilesEmptyDir(t *testing.T) {
	grid := NewGrid(geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(10, 10, 10)}, 1)
	if ts, err := LoadTiles(t.TempDir(), grid); err == nil {
		t.Fatalf("empty dir loaded %d objects", len(ts.Objects))
	}
}

func TestNonFiniteCoordinatesClampToCuboidZero(t *testing.T) {
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(100, 100, 100)}
	g := NewGrid(space, 27)
	nan := math.NaN()
	for _, p := range []geom.Vec3{
		{X: nan, Y: nan, Z: nan},
		{X: nan, Y: 50, Z: 50},
		{X: math.Inf(-1), Y: 50, Z: 50},
	} {
		if i := g.CuboidOf(p); i < 0 || i >= g.Nx*g.Ny*g.Nz {
			t.Errorf("CuboidOf(%v) = %d out of range", p, i)
		}
	}
	// A fully-NaN point lands in cuboid 0, not an arbitrary index.
	if i := g.CuboidOf(geom.V(nan, nan, nan)); i != 0 {
		t.Errorf("CuboidOf(NaN) = %d, want 0", i)
	}
	if i := g.CuboidOf(geom.V(math.Inf(1), math.Inf(1), math.Inf(1))); i != g.Nx*g.Ny*g.Nz-1 {
		t.Errorf("CuboidOf(+Inf) = %d, want last cuboid", i)
	}
}

func TestNewGridNonFiniteSpace(t *testing.T) {
	nan := math.NaN()
	for _, space := range []geom.Box3{
		{Min: geom.V(nan, 0, 0), Max: geom.V(10, 10, 10)},
		{Min: geom.V(0, 0, 0), Max: geom.V(math.Inf(1), 10, 10)},
	} {
		g := NewGrid(space, 64)
		if g.Nx*g.Ny*g.Nz < 1 || g.Nx*g.Ny*g.Nz > 1<<21 {
			t.Errorf("NewGrid(%v) cuboids = %d", space, g.Nx*g.Ny*g.Nz)
		}
		if i := g.CuboidOf(geom.V(1, 2, 3)); i < 0 || i >= g.Nx*g.Ny*g.Nz {
			t.Errorf("CuboidOf on non-finite grid = %d", i)
		}
	}
}

func TestTileChecksumDetectsBitrot(t *testing.T) {
	dir := t.TempDir()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(10, 10, 10)}
	grid := NewGrid(space, 1)
	m := mesh.Icosphere(2, 1)
	m.Translate(geom.V(5, 5, 5))
	ts := NewTileset(grid, []*ppvp.Compressed{compress(t, m)})
	if err := ts.SaveTiles(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Clean load works.
	if _, err := LoadTiles(dir, grid); err != nil {
		t.Fatalf("clean load: %v", err)
	}
	// Flip one bit in the middle of the payload.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTiles(dir, grid); err == nil {
		t.Error("bit-rotted tile accepted")
	}
}

// saveTileset builds n icospheres along a line and saves them as tiles.
func saveTileset(t *testing.T, dir string, grid Grid, n int) *Tileset {
	t.Helper()
	var comps []*ppvp.Compressed
	for i := 0; i < n; i++ {
		m := mesh.Icosphere(1.5, 1)
		m.Translate(geom.V(float64(i)*6+3, 5, 5))
		comps = append(comps, compress(t, m))
	}
	ts := NewTileset(grid, comps)
	if err := ts.SaveTiles(dir); err != nil {
		t.Fatalf("SaveTiles: %v", err)
	}
	return ts
}

// TestSaveTilesLeavesNoTempFiles: a save of several cuboids, repeated,
// leaves exactly one file in its directory.
func TestSaveTilesLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(40, 10, 10)}
	saveTileset(t, dir, NewGrid(space, 4), 6)
	saveTileset(t, dir, NewGrid(space, 2), 3)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		t.Errorf("files after SaveTiles: %v, want only %s", entries, FileName)
	}
}

func TestLoadTilesIgnoresPartialTemp(t *testing.T) {
	dir := t.TempDir()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(40, 10, 10)}
	grid := NewGrid(space, 4)
	ts := saveTileset(t, dir, grid, 6)
	// Simulate a crash mid-write: a half-written temp file left behind.
	tmp := filepath.Join(dir, FileName+".tmp-1234")
	if err := os.WriteFile(tmp, []byte("half a tile"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTiles(dir, grid)
	if err != nil {
		t.Fatalf("LoadTiles with stray temp: %v", err)
	}
	if len(got.Objects) != len(ts.Objects) {
		t.Fatalf("loaded %d objects, want %d", len(got.Objects), len(ts.Objects))
	}
}

func TestAtomicWriteFileReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := atomicWriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(path, []byte("new "), []byte("content")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "new content" {
		t.Fatalf("content = %q", data)
	}
}

// regionStart returns the offset of a dataset file's first tile region.
func regionStart(data []byte) int {
	return 8 + int(binary.LittleEndian.Uint32(data[4:])) + 4
}

func TestSalvageKeepsUndamagedObjects(t *testing.T) {
	dir := t.TempDir()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(20, 20, 20)}
	grid := NewGrid(space, 1) // single tile holds all objects
	saveTileset(t, dir, grid, 3)
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the blob of the first record (8 = region header, 12 = record
	// header, +10 lands inside the blob). Its CRC fails; later records are
	// intact.
	data[regionStart(data)+8+12+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadTiles(dir, grid); err == nil {
		t.Fatal("strict load accepted damaged tile")
	}

	ts, rep, err := Load(dir, true, nil)
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	if rep.ObjectsLoaded != 2 || rep.TilesLoaded != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.ObjectsDropped) != 1 || rep.ObjectsDropped[0].ID != 0 ||
		rep.ObjectsDropped[0].Reason != "record checksum mismatch" {
		t.Fatalf("drops = %+v", rep.ObjectsDropped)
	}
	// Sparse IDs tolerated: slot 0 is a nil hole, 1 and 2 survive.
	if len(ts.Objects) != 3 || ts.Object(0) != nil {
		t.Fatalf("objects = %d, slot0 = %v", len(ts.Objects), ts.Object(0))
	}
	for id := int64(1); id <= 2; id++ {
		o := ts.Object(id)
		if o == nil || o.ID != id {
			t.Fatalf("object %d not salvaged", id)
		}
		if _, err := o.Comp.Decode(0); err != nil {
			t.Fatalf("salvaged object %d does not decode: %v", id, err)
		}
	}
	if ts.CompressedBytes() <= 0 {
		t.Error("CompressedBytes with nil holes")
	}
}

// TestLoadIgnoresStrayFiles: a load opens only the dataset file, so
// leftovers beside it — a garbage tile file or manifest of another layout,
// an abandoned temp — change nothing.
func TestLoadIgnoresStrayFiles(t *testing.T) {
	dir := t.TempDir()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(40, 10, 10)}
	grid := NewGrid(space, 4)
	ts := saveTileset(t, dir, grid, 6)
	for _, name := range []string{"tile-000000.bin", "tile-999999.bin", "dataset.json", FileName + ".tmp-1"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := LoadTiles(dir, grid); err != nil || len(got.Objects) != len(ts.Objects) {
		t.Fatalf("strict load beside stray files: err = %v", err)
	}
	got, rep, err := Load(dir, true, nil)
	if err != nil || !rep.Clean() || rep.ObjectsLoaded != len(ts.Objects) {
		t.Fatalf("salvage load beside stray files: err = %v, report = %+v", err, rep)
	}
	if len(got.Objects) != len(ts.Objects) {
		t.Fatalf("loaded %d objects, want %d", len(got.Objects), len(ts.Objects))
	}
}

// TestLoadDamage: every kind of damage fails a strict load, and a salvage
// load gives the report that damage calls for. The checksum of a region
// and bytes past the last region lose no object, so salvage is clean there
// while strict still refuses the file.
func TestLoadDamage(t *testing.T) {
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(40, 10, 10)}
	grid := NewGrid(space, 4)
	const n = 6
	cases := []struct {
		name       string
		damage     func(t *testing.T, dir string, data []byte) []byte
		salvageErr bool
		loaded     int  // objects a salvage load keeps
		clean      bool // whether its report is clean
		reason     string
	}{
		{name: "header flip", salvageErr: true, damage: func(_ *testing.T, _ string, data []byte) []byte {
			data[10] ^= 0x01
			return data
		}},
		{name: "region checksum", loaded: n, clean: true, damage: func(_ *testing.T, _ string, data []byte) []byte {
			h, off, _ := decodeHeader(data)
			data[off+h.Tiles[0]-1] ^= 0x01
			return data
		}},
		{name: "region past end of file", loaded: n - 1, reason: "not recovered from any tile", damage: func(_ *testing.T, _ string, data []byte) []byte {
			return data[:len(data)-20]
		}},
		{name: "bytes after the last region", loaded: n, clean: true, damage: func(_ *testing.T, _ string, data []byte) []byte {
			return append(data, "trailing"...)
		}},
		{name: "duplicate id", loaded: n - 1, reason: "duplicate object ID", damage: func(t *testing.T, dir string, _ []byte) []byte {
			ts := saveTileset(t, dir, grid, n)
			ts.Objects[1].ID = 0
			if err := ts.SaveTiles(dir); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, FileName))
			if err != nil {
				t.Fatal(err)
			}
			return data
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			saveTileset(t, dir, grid, n)
			path := filepath.Join(dir, FileName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(t, dir, data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadTiles(dir, grid); !errors.Is(err, ErrBadTile) {
				t.Fatalf("strict load: err = %v, want ErrBadTile", err)
			}
			ts, rep, err := Load(dir, true, nil)
			if tc.salvageErr {
				if err == nil {
					t.Fatalf("salvage load accepted the damage: %+v", rep)
				}
				return
			}
			if err != nil {
				t.Fatalf("salvage load: %v", err)
			}
			if rep.ObjectsLoaded != tc.loaded || rep.Clean() != tc.clean || len(ts.Objects) != n {
				t.Fatalf("salvage: %d of %d slots loaded, report %+v; want %d loaded, clean %v",
					rep.ObjectsLoaded, len(ts.Objects), rep, tc.loaded, tc.clean)
			}
			if tc.reason != "" && !slices.ContainsFunc(rep.ObjectsDropped, func(dr DroppedObject) bool { return dr.Reason == tc.reason }) {
				t.Fatalf("no drop for %q in %+v", tc.reason, rep.ObjectsDropped)
			}
		})
	}
}
