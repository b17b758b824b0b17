// Package storage implements the memory-centered data layout of the paper's
// §5.3: space is partitioned into fixed-size cuboids, the compressed blobs
// of the objects in one cuboid are stored contiguously in one tile (one
// region of the dataset's one file when persisted, one memory region when
// loaded), and object MBBs plus blob locations are exposed so the engine
// can build a single global R-tree over everything without decoding.
package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/ppvp"
)

// ErrBadTile is returned when a dataset file or one of its tile regions is
// damaged.
var ErrBadTile = errors.New("storage: damaged dataset file")

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
// leave nil holes where damaged objects were dropped. Tiles lists each
// cuboid's objects in ID order.
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

// FileName is the one file a saved dataset occupies in its directory:
//
//	"3DPD" | u32 header length H | header JSON (H bytes) | u32 CRC-32 of
//	everything before it | one tile region per non-empty cuboid, in cuboid
//	order, each as long as the header says
//
// The header records the grid, the object count, each region's byte
// length, and the caller's metadata as raw JSON. A tile region is
// "3DT2", a u32 record count, the records — u64 id, u32 blob length, blob,
// u32 CRC-32 of the record — and a CRC-32 of the region before it. The
// per-record CRCs let a salvage load keep the undamaged objects of a
// damaged region: a record whose CRC holds has a trustworthy ID.
const FileName = "dataset.bin"

const fileMagic, tileMagic = "3DPD", "3DT2"

type header struct {
	Grid    Grid            `json:"grid"`
	Objects int             `json:"objects"`
	Tiles   []int           `json:"tiles"` // region lengths, in cuboid order
	Meta    json.RawMessage `json:"meta"`
}

// SaveTiles saves the tileset in dir with no metadata (see Save).
func (ts *Tileset) SaveTiles(dir string) error { return ts.Save(dir, nil) }

// Save writes the tileset as the one file FileName in dir (created if
// needed), with meta marshalled into its header. The file is written under
// a temporary name and renamed into place, and the directory is fsynced:
// the rename is the commit point, so a load sees the previous save or this
// one, never a mix.
func (ts *Tileset) Save(dir string, meta any) error {
	h := header{Grid: ts.Grid, Objects: len(ts.Objects)}
	var err error
	if h.Meta, err = json.Marshal(meta); err != nil {
		return err
	}
	cuboids := make([]int, 0, len(ts.Tiles))
	for c := range ts.Tiles {
		cuboids = append(cuboids, c)
	}
	slices.Sort(cuboids)
	var body []byte
	for _, c := range cuboids {
		n := len(body)
		body = encodeTile(body, ts.Tiles[c])
		h.Tiles = append(h.Tiles, len(body)-n)
	}
	js, err := json.Marshal(h)
	if err != nil {
		return err
	}
	head := binary.LittleEndian.AppendUint32([]byte(fileMagic), uint32(len(js)))
	head = append(head, js...)
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(head))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, FileName)
	if err := atomicWriteFile(path, head, body); err != nil {
		return fmt.Errorf("storage: writing %s: %w", path, err)
	}
	return nil
}

// atomicWriteFile writes the chunks to path through a temporary file in the
// same directory, fsyncs it, renames it into place and fsyncs the
// directory, so a crash leaves the old file or the new one, never a torn
// one, and a returned save survives the crash.
func atomicWriteFile(path string, chunks ...[]byte) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once the rename has happened
	for _, c := range chunks {
		if err == nil {
			_, err = tmp.Write(c)
		}
	}
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// encodeTile appends one cuboid's objects to buf as a tile region.
func encodeTile(buf []byte, objs []*Object) []byte {
	start := len(buf)
	buf = append(buf, tileMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(objs)))
	for _, o := range objs {
		rec := len(buf)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.ID))
		blob := o.Comp.Bytes()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[rec:]))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// LoadTiles strictly loads the tileset saved in dir, failing unless it was
// saved over grid.
func LoadTiles(dir string, grid Grid) (*Tileset, error) {
	ts, _, err := Load(dir, false, nil)
	if err == nil && ts.Grid != grid {
		return nil, fmt.Errorf("%w: %s was saved over another grid", ErrBadTile, dir)
	}
	return ts, err
}

// Load reads the dataset file in dir and unmarshals its metadata into meta
// (unless nil). A strict load (salvage false) fails on any damage. A
// salvage load keeps every record whose checksum holds: Objects has the
// saved number of slots, with a nil hole for each object lost, and the
// report lists every hole; it fails only when the file or its header is
// unreadable. No other file in dir is opened.
func Load(dir string, salvage bool, meta any) (*Tileset, *SalvageReport, error) {
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	ts, rep, err := decode(data, salvage, meta)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (%s)", err, path)
	}
	return ts, rep, nil
}

// decode walks a dataset file region by region and record by record,
// keeping the records whose checksum holds. A salvage decode returns what
// survived; a strict one fails unless nothing was lost, every region is
// intact and no bytes follow the last region.
func decode(data []byte, salvage bool, meta any) (*Tileset, *SalvageReport, error) {
	h, off, err := decodeHeader(data)
	if err != nil {
		return nil, nil, err
	}
	if meta != nil {
		if err := json.Unmarshal(h.Meta, meta); err != nil {
			return nil, nil, fmt.Errorf("%w: metadata: %v", ErrBadTile, err)
		}
	}
	objs := make([]*Object, h.Objects)
	rep := &SalvageReport{}
	var flaw error // the first damage that loses no object
	for i, n := range h.Tiles {
		if n < 0 || n > len(data)-off {
			n = len(data) - off
		}
		region := faultinject.Corrupt(faultinject.PointStorageTile, data[off:off+n])
		if !walkTile(region, i, objs, rep) && flaw == nil {
			flaw = fmt.Errorf("%w: tile %d is damaged", ErrBadTile, i)
		}
		off += n
	}
	if off != len(data) && flaw == nil {
		flaw = fmt.Errorf("%w: %d bytes after the last tile", ErrBadTile, len(data)-off)
	}

	ts := &Tileset{Grid: h.Grid, Objects: objs, Tiles: make(map[int][]*Object)}
	reported := make(map[int64]bool, len(rep.ObjectsDropped))
	for _, dr := range rep.ObjectsDropped {
		reported[dr.ID] = true
	}
	for id, o := range objs {
		if o == nil {
			// A record whose ID field was itself damaged is reported under
			// its garbage ID, so every hole not yet covered gets an entry.
			if !reported[int64(id)] {
				rep.ObjectsDropped = append(rep.ObjectsDropped, DroppedObject{ID: int64(id), Reason: "not recovered from any tile"})
			}
			continue
		}
		rep.ObjectsLoaded++
		o.Cuboid = ts.Grid.CuboidOf(o.MBB().Center())
		ts.Tiles[o.Cuboid] = append(ts.Tiles[o.Cuboid], o)
	}
	if salvage {
		return ts, rep, nil
	}
	if flaw == nil && len(rep.ObjectsDropped) > 0 {
		dr := rep.ObjectsDropped[0]
		flaw = fmt.Errorf("%w: object %d: %s", ErrBadTile, dr.ID, dr.Reason)
	}
	if flaw != nil {
		return nil, nil, flaw
	}
	return ts, rep, nil
}

// decodeHeader checks the file's magic and header checksum and returns the
// header and the offset of the first tile region.
func decodeHeader(data []byte) (header, int, error) {
	var h header
	if len(data) < 12 || string(data[:4]) != fileMagic {
		return h, 0, fmt.Errorf("%w: not a dataset file", ErrBadTile)
	}
	end := 8 + int(binary.LittleEndian.Uint32(data[4:]))
	if end+4 > len(data) || crc32.ChecksumIEEE(data[:end]) != binary.LittleEndian.Uint32(data[end:]) {
		return h, 0, fmt.Errorf("%w: header checksum mismatch", ErrBadTile)
	}
	// The object count sizes the Objects slice before any record is read.
	if err := json.Unmarshal(data[8:end], &h); err != nil || h.Objects < 0 || h.Objects > 1<<24 {
		return h, 0, fmt.Errorf("%w: unusable header", ErrBadTile)
	}
	return h, end + 4, nil
}

// walkTile puts into objs every record of one tile region whose checksum
// holds and whose ID names a free slot, and reports the others. When the
// region's checksum holds, its count and layout are trusted; otherwise the
// whole region is walked and the per-record checksums decide, since the
// count may be the damaged field. It reports whether the region is intact:
// its checksum holds and its records fill it exactly.
func walkTile(data []byte, tile int, objs []*Object, rep *SalvageReport) bool {
	if len(data) < 12 || string(data[:4]) != tileMagic {
		rep.TilesSkipped = append(rep.TilesSkipped, SkippedTile{Tile: tile, Reason: "not a tile region"})
		return false
	}
	rep.TilesLoaded++
	crcOK := crc32.ChecksumIEEE(data[:len(data)-4]) == binary.LittleEndian.Uint32(data[len(data)-4:])
	limit := len(data)
	if crcOK {
		limit -= 4
	}
	count := int(binary.LittleEndian.Uint32(data[4:8]))
	off, processed := 8, 0
	for off+16 <= limit && !(crcOK && processed >= count) {
		id := int64(binary.LittleEndian.Uint64(data[off:]))
		end := off + 12 + int(binary.LittleEndian.Uint32(data[off+8:]))
		if end+4 > limit {
			break // the length cannot be trusted, so no later record can be located
		}
		reason := ""
		switch {
		case crc32.ChecksumIEEE(data[off:end]) != binary.LittleEndian.Uint32(data[end:]):
			reason = "record checksum mismatch"
		case id < 0 || id >= int64(len(objs)):
			reason = "implausible object ID"
		case objs[id] != nil:
			reason = "duplicate object ID"
		default:
			if comp, err := ppvp.FromBytes(data[off+12 : end]); err != nil {
				reason = "blob rejected: " + err.Error()
			} else {
				objs[id] = &Object{ID: id, Comp: comp}
			}
		}
		if reason != "" {
			rep.ObjectsDropped = append(rep.ObjectsDropped, DroppedObject{ID: id, Reason: reason})
		}
		off = end + 4
		processed++
	}
	if crcOK && processed < count {
		rep.ObjectsDropped = append(rep.ObjectsDropped, DroppedObject{ID: -1, Reason: fmt.Sprintf("%d trailing records unreadable", count-processed)})
	} else if !crcOK && off+16 <= len(data) {
		rep.ObjectsDropped = append(rep.ObjectsDropped, DroppedObject{ID: -1, Reason: "unreadable tail"})
	}
	return crcOK && off == limit
}

// SalvageReport is what a salvage load kept and lost: the objects loaded,
// the tile regions walked and skipped wholesale, and the objects dropped.
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

// SkippedTile records one tile region dropped wholesale; Tile is its
// position in the file.
type SkippedTile struct {
	Tile   int    `json:"tile"`
	Reason string `json:"reason"`
}

// DroppedObject records one object lost by a salvage load. ID is
// best-effort: a record whose checksum failed may report a garbage ID, and
// ID -1 marks records that could not be located at all.
type DroppedObject struct {
	ID     int64  `json:"id"`
	Reason string `json:"reason"`
}
