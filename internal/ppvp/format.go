package ppvp

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// Blob layout (version 1):
//
//	magic "PPVP" | version u8 | policy u8 | quantBits u8 | roundsPerLOD u8
//	nRounds uvarint
//	origin 3×f64 | cell 3×f64 | boundsMax 3×f64
//	nVertsTotal uvarint | nFacesTotal uvarint
//	sectionLens (1+nRounds)×uvarint
//	sections... (each DEFLATE-compressed)
//
// Section 0 is the base mesh (LOD 0); section 1+i is decode round i (the
// inverse of encode round nRounds-i). Patch triangulations are not stored:
// the decoder re-runs the deterministic ear-clipping on the ring positions,
// which reproduces the encoder's choice exactly because both sides operate
// on the same quantized coordinates.
const (
	formatVersion = 1
)

var magic = [4]byte{'P', 'P', 'V', 'P'}

// wbuf is an append-only varint writer.
type wbuf struct{ b []byte }

func (w *wbuf) uvarint(v uint64)  { w.b = binary.AppendUvarint(w.b, v) }
func (w *wbuf) zigzag(v int64)    { w.b = binary.AppendUvarint(w.b, uint64((v<<1)^(v>>63))) }
func (w *wbuf) float64(f float64) { w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(f)) }
func (w *wbuf) byte(v byte)       { w.b = append(w.b, v) }

// rbuf is the matching reader; it latches the first error.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = ErrCorruptBlob
	}
}

func (r *rbuf) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *rbuf) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *rbuf) float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *rbuf) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Compressed is a PPVP-compressed polyhedron: a self-contained blob plus
// lazily parsed sections shared by all decoders.
type Compressed struct {
	blob []byte
	id   int64
	crc  uint32

	policy       Policy
	quantBits    int
	roundsPerLOD int
	nRounds      int
	bounds       geom.Box3
	quant        quantizer
	nVertsTotal  int
	nFacesTotal  int

	sectionOff []int // offsets into blob, len = nSections+1

	mu     sync.Mutex
	base   *mesh.Mesh // parsed LOD-0 mesh (permanent numbering); treat as read-only
	rounds []*round   // parsed decode rounds, nil until needed
}

// deflaters recycles DEFLATE writers between sections: a fresh writer is
// ≈ 800 KB of hash chains and window, built to squeeze a section of a few
// hundred bytes, and an object has one section per round.
var deflaters sync.Pool

// deflate compresses raw with DEFLATE (the entropy-coding stage). The
// stream of a Reset writer is the stream of a fresh one, so recycling the
// writer leaves the blob unchanged.
func deflate(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	fw, _ := deflaters.Get().(*flate.Writer)
	if fw == nil {
		var err error
		if fw, err = flate.NewWriter(&buf, flate.DefaultCompression); err != nil {
			return nil, err
		}
	} else {
		fw.Reset(&buf)
	}
	defer deflaters.Put(fw)
	if _, err := fw.Write(raw); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// maxSectionBytes caps the inflated size of one section; a blob claiming
// more is corrupt (or hostile), not a real object.
const maxSectionBytes = 1 << 30

// inflaters recycles DEFLATE readers between sections: a fresh reader
// allocates its 32 KiB window and Huffman tables, ≈ 40 KiB for a section of
// a few hundred bytes, and a cold cache parses every section it decodes.
var inflaters sync.Pool

func inflate(comp []byte) ([]byte, error) {
	src := bytes.NewReader(comp)
	fr, _ := inflaters.Get().(io.ReadCloser)
	if fr == nil {
		fr = flate.NewReader(src)
	} else if err := fr.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, err
	}
	defer inflaters.Put(fr)
	raw, err := io.ReadAll(io.LimitReader(fr, maxSectionBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptBlob, err)
	}
	if len(raw) > maxSectionBytes {
		return nil, fmt.Errorf("%w: section exceeds %d bytes", ErrCorruptBlob, maxSectionBytes)
	}
	return raw, nil
}

// assemble serializes the base mesh and decode rounds into a blob.
func assemble(base *mesh.Mesh, decodeRounds []round, quant quantizer, opts Options, bounds geom.Box3, nv, nf int) (*Compressed, error) {
	sections := make([][]byte, 0, 1+len(decodeRounds))

	// Base section.
	var bw wbuf
	bw.uvarint(uint64(len(base.Vertices)))
	var px, py, pz uint32
	for _, v := range base.Vertices {
		x, y, z := quant.encode(v)
		bw.zigzag(int64(x) - int64(px))
		bw.zigzag(int64(y) - int64(py))
		bw.zigzag(int64(z) - int64(pz))
		px, py, pz = x, y, z
	}
	bw.uvarint(uint64(len(base.Faces)))
	var prev int64
	for _, f := range base.Faces {
		for _, idx := range f {
			bw.zigzag(int64(idx) - prev)
			prev = int64(idx)
		}
	}
	sections = append(sections, bw.b)

	// Round sections.
	for _, rd := range decodeRounds {
		var rw wbuf
		rw.uvarint(uint64(len(rd.ops)))
		var ox, oy, oz uint32
		for _, o := range rd.ops {
			x, y, z := quant.encode(o.pos)
			rw.zigzag(int64(x) - int64(ox))
			rw.zigzag(int64(y) - int64(oy))
			rw.zigzag(int64(z) - int64(oz))
			ox, oy, oz = x, y, z
			rw.uvarint(uint64(o.strat))
			rw.uvarint(uint64(len(o.ring)))
			var pr int64
			for _, id := range o.ring {
				rw.zigzag(int64(id) - pr)
				pr = int64(id)
			}
		}
		sections = append(sections, rw.b)
	}

	// Header + compressed sections.
	var hw wbuf
	hw.b = append(hw.b, magic[:]...)
	hw.byte(formatVersion)
	hw.byte(byte(opts.Policy))
	hw.byte(byte(opts.QuantBits))
	hw.byte(byte(opts.RoundsPerLOD))
	hw.uvarint(uint64(len(decodeRounds)))
	hw.float64(quant.origin.X)
	hw.float64(quant.origin.Y)
	hw.float64(quant.origin.Z)
	hw.float64(quant.cell.X)
	hw.float64(quant.cell.Y)
	hw.float64(quant.cell.Z)
	hw.float64(bounds.Max.X)
	hw.float64(bounds.Max.Y)
	hw.float64(bounds.Max.Z)
	hw.uvarint(uint64(nv))
	hw.uvarint(uint64(nf))

	comp := make([][]byte, len(sections))
	for i, s := range sections {
		c, err := deflate(s)
		if err != nil {
			return nil, err
		}
		comp[i] = c
		hw.uvarint(uint64(len(c)))
	}
	blob := hw.b
	offsets := make([]int, len(comp)+1)
	offsets[0] = len(blob)
	for i, c := range comp {
		blob = append(blob, c...)
		offsets[i+1] = len(blob)
	}

	c := &Compressed{
		blob:         blob,
		id:           blobIDs.Add(1),
		crc:          crc32.ChecksumIEEE(blob),
		policy:       opts.Policy,
		quantBits:    opts.QuantBits,
		roundsPerLOD: opts.RoundsPerLOD,
		nRounds:      len(decodeRounds),
		bounds:       bounds,
		quant:        quant,
		nVertsTotal:  nv,
		nFacesTotal:  nf,
		sectionOff:   offsets,
		base:         base,
		rounds:       make([]*round, len(decodeRounds)),
	}
	for i := range decodeRounds {
		rd := decodeRounds[i]
		c.rounds[i] = &rd
	}
	return c, nil
}

// Bytes returns the serialized blob. The caller must not modify it.
func (c *Compressed) Bytes() []byte { return c.blob }

// blobIDs hands out Compressed IDs.
var blobIDs atomic.Int64

// ID returns the process-unique identity Compress or FromBytes gave this
// value (two values parsed from the same bytes differ): the decode cache's
// object key.
func (c *Compressed) ID() int64 { return c.id }

// CRC returns the CRC-32 (IEEE) of the blob.
func (c *Compressed) CRC() uint32 { return c.crc }

// TotalSize returns the blob size in bytes.
func (c *Compressed) TotalSize() int { return len(c.blob) }

// FromBytes parses a blob produced by Bytes. Sections are parsed lazily on
// first decode.
func FromBytes(blob []byte) (*Compressed, error) {
	r := &rbuf{b: blob}
	var m [4]byte
	for i := range m {
		m[i] = r.byte()
	}
	if r.err != nil || m != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptBlob)
	}
	if v := r.byte(); v != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptBlob, v)
	}
	c := &Compressed{blob: blob, id: blobIDs.Add(1), crc: crc32.ChecksumIEEE(blob)}
	c.policy = Policy(r.byte())
	c.quantBits = int(r.byte())
	c.roundsPerLOD = int(r.byte())
	c.nRounds = int(r.uvarint())
	c.quant.origin = geom.V(r.float64(), r.float64(), r.float64())
	c.quant.cell = geom.V(r.float64(), r.float64(), r.float64())
	maxPt := geom.V(r.float64(), r.float64(), r.float64())
	c.bounds = geom.Box3{Min: c.quant.origin, Max: maxPt}
	c.nVertsTotal = int(r.uvarint())
	c.nFacesTotal = int(r.uvarint())
	if r.err != nil {
		return nil, r.err
	}
	if c.nRounds < 0 || c.nRounds > 1<<20 || c.roundsPerLOD <= 0 {
		return nil, ErrCorruptBlob
	}
	if c.nVertsTotal < 0 || c.nVertsTotal > 1<<28 || c.nFacesTotal < 0 || c.nFacesTotal > 1<<28 {
		return nil, fmt.Errorf("%w: implausible vertex/face totals", ErrCorruptBlob)
	}
	nSections := 1 + c.nRounds
	lens := make([]int, nSections)
	for i := range lens {
		l := int(r.uvarint())
		// A negative (overflowed) or oversized length would make the
		// section offsets non-monotonic and slicing would panic.
		if l < 0 || l > len(blob) {
			return nil, fmt.Errorf("%w: bad section length", ErrCorruptBlob)
		}
		lens[i] = l
	}
	if r.err != nil {
		return nil, r.err
	}
	c.sectionOff = make([]int, nSections+1)
	c.sectionOff[0] = r.off
	for i, l := range lens {
		c.sectionOff[i+1] = c.sectionOff[i] + l
	}
	if c.sectionOff[nSections] != len(blob) {
		return nil, fmt.Errorf("%w: section lengths do not match blob size", ErrCorruptBlob)
	}
	c.rounds = make([]*round, c.nRounds)
	return c, nil
}

// MBB returns the minimal bounding box of the object at its highest LOD.
// Because PPVP LODs are progressive approximations, every LOD fits inside
// this box, so it is the correct box to index in the global R-tree.
func (c *Compressed) MBB() geom.Box3 { return c.bounds }

// NumRounds returns the number of stored decimation rounds.
func (c *Compressed) NumRounds() int { return c.nRounds }

// NumFaces returns the face count the blob's header records for its highest
// LOD, known without decoding.
func (c *Compressed) NumFaces() int { return c.nFacesTotal }

// TopFaces returns NumFaces bounded by what the blob can back, given that
// its LOD lod decodes to have faces: never fewer than have, and never more
// than the rounds past lod could add. Each decode op adds two faces and
// takes at least eight inflated bytes (three position varints, strategy,
// ring length, three ring varints), and DEFLATE inflates at most 1032×, so
// the rounds left add at most 258 faces per stored byte. At the top LOD no
// round is left and the count is have itself, whatever the header says.
func (c *Compressed) TopFaces(lod, have int) int {
	rest := len(c.blob) - c.sectionOff[1+c.roundsForLOD(max(lod, 0))]
	return min(max(c.nFacesTotal, have), have+rest*258)
}

// MaxLOD returns the highest LOD index; LOD MaxLOD reproduces the quantized
// original mesh.
func (c *Compressed) MaxLOD() int {
	return (c.nRounds + c.roundsPerLOD - 1) / c.roundsPerLOD
}

// NumLODs returns the number of distinct LODs (MaxLOD + 1).
func (c *Compressed) NumLODs() int { return c.MaxLOD() + 1 }

// PolicyUsed returns the pruning policy the blob was encoded with.
func (c *Compressed) PolicyUsed() Policy { return c.policy }

// RoundsForLOD returns how many decode rounds reconstruct the given LOD —
// the unit behind the engine's RoundsApplied/RoundsSkipped counters.
func (c *Compressed) RoundsForLOD(lod int) int { return c.roundsForLOD(lod) }

// roundsForLOD returns how many decode rounds reconstruct the given LOD.
func (c *Compressed) roundsForLOD(lod int) int {
	n := lod * c.roundsPerLOD
	if n > c.nRounds {
		n = c.nRounds
	}
	return n
}

// SectionSizes returns the compressed byte length of each section: index 0
// is the base (LOD 0), index 1+i is decode round i. This is the data behind
// the paper's Fig. 9.
func (c *Compressed) SectionSizes() []int {
	out := make([]int, len(c.sectionOff)-1)
	for i := range out {
		out[i] = c.sectionOff[i+1] - c.sectionOff[i]
	}
	return out
}

// LODSizes aggregates SectionSizes per LOD: index 0 is the base section,
// index k>0 sums the rounds that lift LOD k-1 to LOD k.
func (c *Compressed) LODSizes() []int {
	out := make([]int, c.NumLODs())
	ss := c.SectionSizes()
	out[0] = ss[0]
	for i := 0; i < c.nRounds; i++ {
		lod := i/c.roundsPerLOD + 1
		out[lod] += ss[1+i]
	}
	return out
}

// section returns the raw (inflated) bytes of section i.
func (c *Compressed) section(i int) ([]byte, error) {
	return inflate(c.blob[c.sectionOff[i]:c.sectionOff[i+1]])
}

// parseBase parses (and caches) the base mesh. The returned mesh must be
// treated as read-only.
func (c *Compressed) parseBase() (*mesh.Mesh, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.base != nil {
		return c.base, nil
	}
	raw, err := c.section(0)
	if err != nil {
		return nil, err
	}
	r := &rbuf{b: raw}
	nv := int(r.uvarint())
	// Each vertex takes at least three delta bytes, so a count beyond the
	// raw section size is corrupt; checking before mesh.New bounds the
	// allocation by data actually present.
	if r.err != nil || nv < 0 || nv > 1<<28 || nv > len(raw) {
		return nil, ErrCorruptBlob
	}
	m := mesh.New(nv, 0)
	var px, py, pz int64
	for i := 0; i < nv; i++ {
		px += r.zigzag()
		py += r.zigzag()
		pz += r.zigzag()
		m.Vertices = append(m.Vertices, c.quant.decode(uint32(px), uint32(py), uint32(pz)))
	}
	nf := int(r.uvarint())
	if r.err != nil || nf < 0 || nf > 1<<28 || nf > len(raw) {
		return nil, ErrCorruptBlob
	}
	var prev int64
	for i := 0; i < nf; i++ {
		var f mesh.Face
		for k := 0; k < 3; k++ {
			prev += r.zigzag()
			if prev < 0 || prev >= int64(nv) {
				return nil, ErrCorruptBlob
			}
			f[k] = int32(prev)
		}
		m.Faces = append(m.Faces, f)
	}
	if r.err != nil {
		return nil, r.err
	}
	c.base = m
	return m, nil
}

// parseRound parses (and caches) decode round i.
func (c *Compressed) parseRound(i int) (*round, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rounds[i] != nil {
		return c.rounds[i], nil
	}
	raw, err := c.section(1 + i)
	if err != nil {
		return nil, err
	}
	r := &rbuf{b: raw}
	nOps := int(r.uvarint())
	// Each op takes at least ~6 bytes, so bound the count (and thus the
	// slice preallocation) by the section size.
	if r.err != nil || nOps < 0 || nOps > 1<<26 || nOps > len(raw) {
		return nil, ErrCorruptBlob
	}
	rd := &round{ops: make([]op, 0, nOps)}
	var ox, oy, oz int64
	for j := 0; j < nOps; j++ {
		ox += r.zigzag()
		oy += r.zigzag()
		oz += r.zigzag()
		pos := c.quant.decode(uint32(ox), uint32(oy), uint32(oz))
		strat := r.uvarint()
		if strat > 1<<16 {
			return nil, ErrCorruptBlob
		}
		ringLen := int(r.uvarint())
		if r.err != nil || ringLen < 3 || ringLen > 1<<16 || ringLen > len(raw)-r.off {
			return nil, ErrCorruptBlob
		}
		ring := make([]int32, ringLen)
		var pr int64
		for k := 0; k < ringLen; k++ {
			pr += r.zigzag()
			if pr < 0 || pr > 1<<30 {
				return nil, ErrCorruptBlob
			}
			ring[k] = int32(pr)
		}
		rd.ops = append(rd.ops, op{pos: pos, ring: ring, strat: uint16(strat)})
	}
	if r.err != nil {
		return nil, r.err
	}
	c.rounds[i] = rd
	return rd, nil
}
