// Package storage implements the memory-centered data layout of the paper's
// §5.3: space is partitioned into fixed-size cuboids, the compressed blobs
// of the objects in one cuboid are stored contiguously in one tile (one
// file when persisted, one memory region when loaded), and object MBBs plus
// blob locations are exposed so the engine can build a single global R-tree
// over everything without decoding.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/ppvp"
)

// ErrBadTile is returned when a tile file cannot be parsed.
var ErrBadTile = errors.New("storage: corrupt tile file")

// Grid divides a space box into nx × ny × nz cuboids.
type Grid struct {
	Space      geom.Box3
	Nx, Ny, Nz int
}

// NewGrid builds a grid over space with roughly the requested number of
// cuboids, keeping cuboids close to cubical.
func NewGrid(space geom.Box3, cuboids int) Grid {
	if cuboids < 1 {
		cuboids = 1
	}
	size := space.Size()
	// Scale per-axis counts with the space aspect ratio. The comparison is
	// written !(vol > 0) so NaN volumes (a box with NaN coordinates) take
	// the degenerate path too.
	vol := size.X * size.Y * size.Z
	if !(vol > 0) || math.IsInf(vol, 1) {
		return Grid{Space: space, Nx: cuboids, Ny: 1, Nz: 1}
	}
	edge := math.Cbrt(vol / float64(cuboids))
	nx := axisCount(size.X, edge)
	ny := axisCount(size.Y, edge)
	nz := axisCount(size.Z, edge)
	return Grid{Space: space, Nx: nx, Ny: ny, Nz: nz}
}

// axisCount converts one axis extent into a cuboid count, clamping the
// non-finite cases (NaN extents, zero edge) to 1 instead of relying on
// undefined float→int conversion.
func axisCount(extent, edge float64) int {
	f := extent/edge + 0.5
	if !(f > 1) {
		return 1
	}
	if f > 1<<20 {
		return 1 << 20
	}
	return int(f)
}

// CuboidOf returns the cuboid index of a point (clamped into the grid).
func (g Grid) CuboidOf(p geom.Vec3) int {
	size := g.Space.Size()
	ix := clampIdx(p.X-g.Space.Min.X, size.X, g.Nx)
	iy := clampIdx(p.Y-g.Space.Min.Y, size.Y, g.Ny)
	iz := clampIdx(p.Z-g.Space.Min.Z, size.Z, g.Nz)
	return (iz*g.Ny+iy)*g.Nx + ix
}

func clampIdx(off, size float64, n int) int {
	if size <= 0 || n <= 1 {
		return 0
	}
	// Clamp in float space before converting: float→int conversion of NaN
	// or out-of-range values is undefined, so NaN coordinates (a damaged
	// object surviving a salvage load) go to cuboid 0 instead of anywhere.
	f := off / size * float64(n)
	if !(f > 0) { // NaN and negatives land here
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// Object is one stored object: its ID, MBB, cuboid, and compressed form.
type Object struct {
	ID     int64
	Cuboid int
	Comp   *ppvp.Compressed
}

// MBB returns the object's minimal bounding box (from the compressed
// header; no decoding).
func (o *Object) MBB() geom.Box3 { return o.Comp.MBB() }

// Tileset holds the objects of one dataset grouped by cuboid, all in
// memory, mirroring the paper's load-everything-compressed design.
//
// Objects is indexed by ID (Objects[i] is nil or has ID == int64(i)).
// Strict loading guarantees dense IDs with no holes; salvage loading may
// leave nil holes where damaged objects were dropped.
type Tileset struct {
	Grid    Grid
	Objects []*Object         // by ID; may contain nil holes after salvage
	Tiles   map[int][]*Object // cuboid → objects
}

// NewTileset groups compressed objects into cuboids by MBB center and
// assigns sequential IDs.
func NewTileset(grid Grid, comps []*ppvp.Compressed) *Tileset {
	ts := &Tileset{Grid: grid, Tiles: make(map[int][]*Object)}
	for i, c := range comps {
		o := &Object{ID: int64(i), Cuboid: grid.CuboidOf(c.MBB().Center()), Comp: c}
		ts.Objects = append(ts.Objects, o)
		ts.Tiles[o.Cuboid] = append(ts.Tiles[o.Cuboid], o)
	}
	return ts
}

// Object returns the object with the given ID, or nil.
func (ts *Tileset) Object(id int64) *Object {
	if id < 0 || id >= int64(len(ts.Objects)) {
		return nil
	}
	return ts.Objects[id]
}

// CompressedBytes returns the total compressed footprint of the dataset.
func (ts *Tileset) CompressedBytes() int64 {
	var n int64
	for _, o := range ts.Objects {
		if o != nil {
			n += int64(o.Comp.TotalSize())
		}
	}
	return n
}

// Tile file layouts.
//
// v1 (magic "3DTL"): u32 count, then per object u64 id + u32 blob length +
// blob bytes, ending with a CRC-32 (IEEE) of everything before it. The file
// is all-or-nothing: any damage fails the whole tile.
//
// v2 (magic "3DT2", what SaveTiles writes): the same shape, but each record
// ends with its own CRC-32 over (id, length, blob), so salvage loading can
// keep the undamaged objects of a partially corrupted tile — a record whose
// CRC validates has a trustworthy ID. The trailing whole-file CRC is kept
// for fast strict validation. v1 files remain readable.
var (
	tileMagic   = [4]byte{'3', 'D', 'T', 'L'} // v1: whole-file CRC only
	tileMagicV2 = [4]byte{'3', 'D', 'T', '2'} // v2: adds per-record CRCs
)

// maxSalvageID bounds object IDs accepted during salvage: the Objects slice
// is sized by the largest surviving ID, so without strict loading's density
// check a single implausible ID must not force a giant allocation.
const maxSalvageID = 1 << 24

// SaveTiles persists each cuboid's objects as one file tile-<cuboid>.bin
// under dir (created if needed). Each tile is written atomically.
func (ts *Tileset) SaveTiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for cuboid, objs := range ts.Tiles {
		path := filepath.Join(dir, fmt.Sprintf("tile-%06d.bin", cuboid))
		if err := writeTile(path, objs); err != nil {
			return fmt.Errorf("storage: writing %s: %w", path, err)
		}
	}
	return nil
}

func writeTile(path string, objs []*Object) error {
	return AtomicWriteFile(path, encodeTile(objs), 0o644)
}

// AtomicWriteFile writes data to path via a temp file in the same
// directory, fsyncs it, and renames it into place, so a crash mid-write
// leaves either the old file or nothing — never a torn file. The temp name
// appends ".tmp-" to the base name, so abandoned temps never match the
// tile-*.bin load glob.
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op once the rename has happened
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, path)
}

// encodeTile serializes one cuboid's objects in the v2 tile layout.
func encodeTile(objs []*Object) []byte {
	var buf []byte
	buf = append(buf, tileMagicV2[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(objs)))
	for _, o := range objs {
		start := len(buf)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.ID))
		blob := o.Comp.Bytes()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// LoadTiles reads every tile-*.bin under dir and rebuilds a Tileset using
// the given grid, strictly: any unreadable or corrupt tile fails the whole
// load, and object IDs must be dense 0..n-1.
func LoadTiles(dir string, grid Grid) (*Tileset, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "tile-*.bin"))
	if err != nil {
		return nil, err
	}
	byID := map[int64]*Object{}
	var maxID int64 = -1
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		objs, err := parseTile(data)
		if err != nil {
			return nil, fmt.Errorf("%w (%s)", err, path)
		}
		for _, o := range objs {
			byID[o.ID] = o
			if o.ID > maxID {
				maxID = o.ID
			}
		}
	}
	// IDs must be dense 0..n-1; checking before allocating keeps one tile
	// claiming a huge ID from forcing a huge slice.
	if int64(len(byID)) != maxID+1 {
		return nil, fmt.Errorf("%w: object IDs not dense (%d objects, max ID %d)", ErrBadTile, len(byID), maxID)
	}
	return assembleTileset(grid, byID, maxID), nil
}

// SalvageReport is the manifest of a LoadTilesSalvage run: what loaded,
// what was skipped wholesale, and which objects were dropped.
type SalvageReport struct {
	ObjectsLoaded  int             `json:"objects_loaded"`
	TilesLoaded    int             `json:"tiles_loaded"`
	TilesSkipped   []SkippedTile   `json:"tiles_skipped,omitempty"`
	ObjectsDropped []DroppedObject `json:"objects_dropped,omitempty"`
}

// Clean reports whether nothing was lost.
func (r *SalvageReport) Clean() bool {
	return len(r.TilesSkipped) == 0 && len(r.ObjectsDropped) == 0
}

// SkippedTile records one tile file dropped wholesale.
type SkippedTile struct {
	Path   string `json:"path"`
	Reason string `json:"reason"`
}

// DroppedObject records one object dropped from an otherwise loadable
// tile. ID is best-effort: a record whose checksum failed may report a
// garbage ID, and ID -1 marks records that could not be located at all.
type DroppedObject struct {
	Path   string `json:"path,omitempty"`
	ID     int64  `json:"id"`
	Reason string `json:"reason"`
}

// LoadTilesSalvage loads what it can from dir: tiles that cannot be read
// or parsed are skipped, records whose per-object CRC fails (v2 tiles) are
// dropped, and sparse IDs are tolerated — the returned Tileset's Objects
// slice has nil holes where objects were lost. The report lists everything
// lost; it errors only when dir itself is unusable.
func LoadTilesSalvage(dir string, grid Grid) (*Tileset, *SalvageReport, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "tile-*.bin"))
	if err != nil {
		return nil, nil, err
	}
	rep := &SalvageReport{}
	byID := map[int64]*Object{}
	var maxID int64 = -1
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			rep.TilesSkipped = append(rep.TilesSkipped, SkippedTile{Path: path, Reason: err.Error()})
			continue
		}
		objs, drops, err := salvageTile(data)
		if err != nil {
			rep.TilesSkipped = append(rep.TilesSkipped, SkippedTile{Path: path, Reason: err.Error()})
			continue
		}
		rep.TilesLoaded++
		for i := range drops {
			drops[i].Path = path
		}
		rep.ObjectsDropped = append(rep.ObjectsDropped, drops...)
		for _, o := range objs {
			if _, ok := byID[o.ID]; ok {
				rep.ObjectsDropped = append(rep.ObjectsDropped, DroppedObject{Path: path, ID: o.ID, Reason: "duplicate object ID"})
				continue
			}
			byID[o.ID] = o
			if o.ID > maxID {
				maxID = o.ID
			}
		}
	}
	rep.ObjectsLoaded = len(byID)
	return assembleTileset(grid, byID, maxID), rep, nil
}

func assembleTileset(grid Grid, byID map[int64]*Object, maxID int64) *Tileset {
	ts := &Tileset{Grid: grid, Tiles: make(map[int][]*Object)}
	ts.Objects = make([]*Object, maxID+1)
	for id, o := range byID {
		o.Cuboid = grid.CuboidOf(o.MBB().Center())
		ts.Objects[id] = o
		ts.Tiles[o.Cuboid] = append(ts.Tiles[o.Cuboid], o)
	}
	return ts
}

// parseTile strictly parses one tile file of either version.
func parseTile(data []byte) ([]*Object, error) {
	data = faultinject.Corrupt(faultinject.PointStorageTile, data)
	if len(data) < 12 {
		return nil, ErrBadTile
	}
	switch [4]byte(data[:4]) {
	case tileMagic:
		return parseTileV1(data)
	case tileMagicV2:
		return parseTileV2(data)
	}
	return nil, ErrBadTile
}

func parseTileV1(data []byte) ([]*Object, error) {
	payload := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadTile)
	}
	data = payload
	count := binary.LittleEndian.Uint32(data[4:8])
	// Every object needs at least a 12-byte header, so a larger count is
	// corrupt; checking first bounds the preallocation by the data present.
	if int64(count) > int64(len(data)-8)/12 {
		return nil, fmt.Errorf("%w: object count exceeds file size", ErrBadTile)
	}
	off := 8
	objs := make([]*Object, 0, count)
	for i := uint32(0); i < count; i++ {
		if off+12 > len(data) {
			return nil, ErrBadTile
		}
		id := int64(binary.LittleEndian.Uint64(data[off:]))
		blobLen := int(binary.LittleEndian.Uint32(data[off+8:]))
		off += 12
		if off+blobLen > len(data) {
			return nil, ErrBadTile
		}
		comp, err := ppvp.FromBytes(data[off : off+blobLen])
		if err != nil {
			return nil, err
		}
		off += blobLen
		objs = append(objs, &Object{ID: id, Comp: comp})
	}
	if off != len(data) {
		return nil, ErrBadTile
	}
	return objs, nil
}

func parseTileV2(data []byte) ([]*Object, error) {
	payload := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadTile)
	}
	count := binary.LittleEndian.Uint32(payload[4:8])
	// A v2 record is at least 16 bytes (id + length + record CRC).
	if int64(count) > int64(len(payload)-8)/16 {
		return nil, fmt.Errorf("%w: object count exceeds file size", ErrBadTile)
	}
	off := 8
	objs := make([]*Object, 0, count)
	for i := uint32(0); i < count; i++ {
		o, next, err := parseRecordV2(payload, off)
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
		off = next
	}
	if off != len(payload) {
		return nil, ErrBadTile
	}
	return objs, nil
}

// parseRecordV2 reads one v2 record at off, verifying its CRC, and returns
// the object plus the offset of the next record.
func parseRecordV2(data []byte, off int) (*Object, int, error) {
	if off+16 > len(data) {
		return nil, 0, ErrBadTile
	}
	id := int64(binary.LittleEndian.Uint64(data[off:]))
	blobLen := int(binary.LittleEndian.Uint32(data[off+8:]))
	end := off + 12 + blobLen
	if end+4 > len(data) {
		return nil, 0, ErrBadTile
	}
	want := binary.LittleEndian.Uint32(data[end:])
	if crc32.ChecksumIEEE(data[off:end]) != want {
		return nil, 0, fmt.Errorf("%w: object %d checksum mismatch", ErrBadTile, id)
	}
	comp, err := ppvp.FromBytes(data[off+12 : end])
	if err != nil {
		return nil, 0, err
	}
	return &Object{ID: id, Comp: comp}, end + 4, nil
}

// salvageTile parses what it can of one tile. v1 tiles are all-or-nothing
// (there are no per-record CRCs to trust); v2 tiles are walked record by
// record, dropping records whose CRC fails and stopping when a corrupt
// length makes the rest of the file unwalkable.
func salvageTile(data []byte) ([]*Object, []DroppedObject, error) {
	data = faultinject.Corrupt(faultinject.PointStorageTile, data)
	if len(data) < 12 {
		return nil, nil, ErrBadTile
	}
	switch [4]byte(data[:4]) {
	case tileMagic:
		objs, err := parseTileV1(data)
		return objs, nil, err
	case tileMagicV2:
		objs, drops := salvageTileV2(data)
		return objs, drops, nil
	}
	return nil, nil, fmt.Errorf("%w: unknown magic", ErrBadTile)
}

func salvageTileV2(data []byte) ([]*Object, []DroppedObject) {
	// When the whole-file CRC holds, the count field and record layout are
	// trustworthy; otherwise walk the full file and let per-record CRCs
	// decide what survives (the count itself may be the corrupted field).
	crcOK := crc32.ChecksumIEEE(data[:len(data)-4]) == binary.LittleEndian.Uint32(data[len(data)-4:])
	limit := len(data)
	if crcOK {
		limit -= 4
	}
	count := int(binary.LittleEndian.Uint32(data[4:8]))
	var objs []*Object
	var drops []DroppedObject
	off, processed := 8, 0
	for off+16 <= limit && !(crcOK && processed >= count) {
		id := int64(binary.LittleEndian.Uint64(data[off:]))
		blobLen := int(binary.LittleEndian.Uint32(data[off+8:]))
		end := off + 12 + blobLen
		if end+4 > limit {
			// The length field cannot be trusted, so no record past this
			// point can be located.
			break
		}
		switch want := binary.LittleEndian.Uint32(data[end:]); {
		case crc32.ChecksumIEEE(data[off:end]) != want:
			drops = append(drops, DroppedObject{ID: id, Reason: "record checksum mismatch"})
		case id < 0 || id >= maxSalvageID:
			drops = append(drops, DroppedObject{ID: id, Reason: "implausible object ID"})
		default:
			if comp, err := ppvp.FromBytes(data[off+12 : end]); err != nil {
				drops = append(drops, DroppedObject{ID: id, Reason: "blob rejected: " + err.Error()})
			} else {
				objs = append(objs, &Object{ID: id, Comp: comp})
			}
		}
		off = end + 4
		processed++
	}
	if crcOK && processed < count {
		drops = append(drops, DroppedObject{ID: -1, Reason: fmt.Sprintf("%d trailing records unreadable", count-processed)})
	} else if !crcOK && off+16 <= len(data) {
		drops = append(drops, DroppedObject{ID: -1, Reason: "unreadable tail"})
	}
	return objs, drops
}
