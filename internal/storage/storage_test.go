package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
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

	if err := os.WriteFile(filepath.Join(dir, "tile-000000.bin"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTiles(dir, grid); err == nil {
		t.Error("garbage tile accepted")
	}
}

func TestLoadTilesEmptyDir(t *testing.T) {
	grid := NewGrid(geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(10, 10, 10)}, 1)
	ts, err := LoadTiles(t.TempDir(), grid)
	if err != nil {
		t.Fatalf("empty dir: %v", err)
	}
	if len(ts.Objects) != 0 {
		t.Error("objects from empty dir")
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
	paths, _ := filepath.Glob(filepath.Join(dir, "tile-*.bin"))
	if len(paths) != 1 {
		t.Fatalf("tiles = %d", len(paths))
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Clean load works.
	if _, err := LoadTiles(dir, grid); err != nil {
		t.Fatalf("clean load: %v", err)
	}
	// Flip one bit in the middle of the payload.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
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

func TestSaveTilesLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(40, 10, 10)}
	saveTileset(t, dir, NewGrid(space, 4), 6)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if ok, _ := filepath.Match("tile-*.bin", e.Name()); !ok {
			t.Errorf("stray file after SaveTiles: %s", e.Name())
		}
	}
}

func TestLoadTilesIgnoresPartialTemp(t *testing.T) {
	dir := t.TempDir()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(40, 10, 10)}
	grid := NewGrid(space, 4)
	ts := saveTileset(t, dir, grid, 6)
	// Simulate a crash mid-write: a half-written temp file left behind.
	tmp := filepath.Join(dir, "tile-000001.bin.tmp-1234")
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
	if err := AtomicWriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("new content"), 0o644); err != nil {
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

// encodeTileV1 writes the legacy v1 layout (no per-record CRCs).
func encodeTileV1(objs []*Object) []byte {
	var buf []byte
	buf = append(buf, tileMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(objs)))
	for _, o := range objs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.ID))
		blob := o.Comp.Bytes()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

func TestV1TilesStillReadable(t *testing.T) {
	dir := t.TempDir()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(10, 10, 10)}
	grid := NewGrid(space, 1)
	m := mesh.Icosphere(2, 1)
	m.Translate(geom.V(5, 5, 5))
	ts := NewTileset(grid, []*ppvp.Compressed{compress(t, m)})
	v1 := encodeTileV1(ts.Tiles[ts.Objects[0].Cuboid])
	if err := os.WriteFile(filepath.Join(dir, "tile-000000.bin"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTiles(dir, grid)
	if err != nil {
		t.Fatalf("v1 tile rejected: %v", err)
	}
	if len(got.Objects) != 1 || got.Objects[0].MBB() != ts.Objects[0].MBB() {
		t.Fatal("v1 round-trip mismatch")
	}
	// Salvage mode reads v1 too (all-or-nothing).
	sts, rep, err := LoadTilesSalvage(dir, grid)
	if err != nil || !rep.Clean() || len(sts.Objects) != 1 {
		t.Fatalf("v1 salvage: err=%v report=%+v", err, rep)
	}
	// A damaged v1 tile is skipped wholesale: no per-record CRCs to trust.
	v1[len(v1)/2] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, "tile-000000.bin"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	sts, rep, err = LoadTilesSalvage(dir, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TilesSkipped) != 1 || len(sts.Objects) != 0 {
		t.Fatalf("damaged v1: report=%+v objects=%d", rep, len(sts.Objects))
	}
}

func TestSalvageKeepsUndamagedObjects(t *testing.T) {
	dir := t.TempDir()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(20, 20, 20)}
	grid := NewGrid(space, 1) // single tile holds all objects
	saveTileset(t, dir, grid, 3)
	paths, _ := filepath.Glob(filepath.Join(dir, "tile-*.bin"))
	if len(paths) != 1 {
		t.Fatalf("tiles = %d", len(paths))
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Damage the blob of the first record (offset 8 = header, 12 = record
	// header, +10 lands inside the blob). Its CRC fails; later records are
	// intact.
	data[8+12+10] ^= 0xFF
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadTiles(dir, grid); err == nil {
		t.Fatal("strict load accepted damaged tile")
	}

	ts, rep, err := LoadTilesSalvage(dir, grid)
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

func TestSalvageSkipsUnreadableTile(t *testing.T) {
	dir := t.TempDir()
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(40, 10, 10)}
	grid := NewGrid(space, 4)
	ts := saveTileset(t, dir, grid, 6)
	if err := os.WriteFile(filepath.Join(dir, "tile-999999.bin"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep, err := LoadTilesSalvage(dir, grid)
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	if len(rep.TilesSkipped) != 1 || rep.ObjectsLoaded != len(ts.Objects) {
		t.Fatalf("report = %+v", rep)
	}
	if len(got.Objects) != len(ts.Objects) {
		t.Fatalf("loaded %d objects, want %d", len(got.Objects), len(ts.Objects))
	}
}
