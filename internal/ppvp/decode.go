package ppvp

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/mesh"
)

// Decoder incrementally reconstructs a compressed object from LOD 0 upward.
// Decoding to LOD k and later to LOD k+1 reuses the LOD-k state, which is
// exactly how the engine's progressive refinement consumes it. A Decoder is
// not safe for concurrent use; the Compressed it reads from is.
type Decoder struct {
	c             *Compressed
	verts         []geom.Vec3
	faces         []mesh.Face
	faceIdx       faceTable
	roundsApplied int

	// Scratch reused by every op: the ring positions and the patch
	// triangulation's working memory.
	ringPts []geom.Vec3
	tri     triScratch
}

// NewDecoder returns a decoder positioned at LOD 0.
func (c *Compressed) NewDecoder() (*Decoder, error) {
	base, err := c.parseBase()
	if err != nil {
		return nil, err
	}
	return c.decoderAt(0, base)
}

// ResumeDecoder returns a decoder positioned at lod whose state is m, the
// mesh a decode of this blob produced at lod: it starts where that decode
// stopped instead of replaying its rounds, and DecodeTo from it returns
// exactly what a cold decode returns. m is copied, not retained. Two faces
// of m on one vertex set, which no decode produces, are an error, so the
// caller can decode cold instead.
func (c *Compressed) ResumeDecoder(lod int, m *mesh.Mesh) (*Decoder, error) {
	if lod < 0 || lod > c.MaxLOD() {
		return nil, fmt.Errorf("%w: lod %d of [0,%d]", ErrLODOutOfRange, lod, c.MaxLOD())
	}
	return c.decoderAt(c.roundsForLOD(lod), m)
}

// decoderAt returns a decoder holding a copy of m with rounds applied.
func (c *Compressed) decoderAt(rounds int, m *mesh.Mesh) (*Decoder, error) {
	// The header totals are only capacity hints; clamp them by what the
	// blob could possibly inflate to (DEFLATE expands ≤ ~1032×, a vertex
	// costs ≥ 3 raw bytes) so a corrupt header cannot force a huge
	// allocation before the sections are even parsed.
	vcap := clampCap(c.nVertsTotal, len(m.Vertices), len(c.blob))
	fcap := clampCap(c.nFacesTotal, len(m.Faces), len(c.blob))
	d := &Decoder{
		c:             c,
		verts:         append(make([]geom.Vec3, 0, vcap), m.Vertices...),
		faces:         append(make([]mesh.Face, 0, fcap), m.Faces...),
		faceIdx:       newFaceTable(fcap),
		roundsApplied: rounds,
	}
	for i, f := range d.faces {
		if !d.faceIdx.put(d.faces, keyOf(f), int32(i)) {
			return nil, fmt.Errorf("%w: two faces on vertices %v", ErrCorruptBlob, keyOf(f))
		}
	}
	return d, nil
}

// clampCap bounds a header-claimed element count to what blobLen bytes of
// DEFLATE input could actually encode, but never below the already-parsed
// base count.
func clampCap(claimed, have, blobLen int) int {
	limit := blobLen * 344 // 1032× max expansion / 3 bytes per element
	if limit < 0 {
		limit = claimed // overflow: blob already huge, trust the header
	}
	if claimed > limit {
		claimed = limit
	}
	if claimed < have {
		claimed = have
	}
	return claimed
}

// RoundsApplied returns how many decode rounds the decoder has replayed so
// far. A warm-start consumer resuming this decoder skips exactly this many
// rounds compared to a cold decode.
func (d *Decoder) RoundsApplied() int { return d.roundsApplied }

// DecodeTo advances the decoder to the given LOD (which must be ≥ the
// current LOD) and returns an independent snapshot of the mesh at that LOD.
func (d *Decoder) DecodeTo(lod int) (*mesh.Mesh, error) {
	if err := faultinject.Fire(faultinject.PointPPVPDecode); err != nil {
		return nil, err
	}
	if lod < 0 || lod > d.c.MaxLOD() {
		return nil, fmt.Errorf("%w: lod %d of [0,%d]", ErrLODOutOfRange, lod, d.c.MaxLOD())
	}
	target := d.c.roundsForLOD(lod)
	if target < d.roundsApplied {
		return nil, fmt.Errorf("ppvp: decoder cannot rewind (at round %d, want %d); use a new decoder", d.roundsApplied, target)
	}
	for d.roundsApplied < target {
		rd, err := d.c.parseRound(d.roundsApplied)
		if err != nil {
			return nil, err
		}
		for i := range rd.ops {
			if err := d.applyOp(&rd.ops[i]); err != nil {
				return nil, err
			}
		}
		d.roundsApplied++
	}
	return d.snapshot(), nil
}

// snapshot clones the current mesh state.
func (d *Decoder) snapshot() *mesh.Mesh {
	m := &mesh.Mesh{
		Vertices: append([]geom.Vec3(nil), d.verts...),
		Faces:    append([]mesh.Face(nil), d.faces...),
	}
	return m
}

// applyOp re-inserts one removed vertex: the deterministic ear-clipping is
// re-run on the ring positions to identify the patch triangles to delete,
// then the original fan around the vertex is restored.
func (d *Decoder) applyOp(o *op) error {
	n := int32(len(d.verts))
	d.ringPts = grown(d.ringPts, len(o.ring))
	for i, id := range o.ring {
		if id < 0 || id >= n {
			return fmt.Errorf("%w: ring reference %d out of %d vertices", ErrCorruptBlob, id, n)
		}
		d.ringPts[i] = d.verts[id]
	}
	// Recompute the patch triangulation from the recorded strategy; do not
	// cache it on the shared op, several decoders may work off the same
	// Compressed concurrently.
	patch := o.patch
	if patch == nil {
		var ok bool
		patch, ok = patchForStrategy(d.ringPts, o.strat, &d.tri)
		if !ok {
			return fmt.Errorf("%w: ring cannot be retriangulated", ErrCorruptBlob)
		}
	}

	// Delete the patch faces: swap-remove each. Its slot goes first, so no
	// slot names idx when the last face moves there and is re-pointed.
	for _, t := range patch {
		f := mesh.Face{o.ring[t[0]], o.ring[t[1]], o.ring[t[2]]}
		key := keyOf(f)
		slot := d.faceIdx.find(d.faces, key)
		if slot < 0 {
			return fmt.Errorf("%w: patch face %v missing from mesh", ErrCorruptBlob, f)
		}
		idx := d.faceIdx.slots[slot] - 1
		d.faceIdx.remove(d.faces, slot)
		last := int32(len(d.faces) - 1)
		if idx != last {
			d.faces[idx] = d.faces[last]
			d.faceIdx.put(d.faces, keyOf(d.faces[idx]), idx)
		}
		d.faces = d.faces[:last]
	}

	// Restore the vertex and its fan. A fan face on the vertex set of a
	// live face (a ring that repeats a vertex, corrupt input only) is
	// refused: every live face keeps a key of its own, which is what lets
	// ResumeDecoder rebuild the table from the faces alone.
	vid := n
	d.verts = append(d.verts, o.pos)
	for i := range o.ring {
		f := mesh.Face{vid, o.ring[i], o.ring[(i+1)%len(o.ring)]}
		if !d.faceIdx.put(d.faces, keyOf(f), int32(len(d.faces))) {
			return fmt.Errorf("%w: fan face %v duplicates a live face", ErrCorruptBlob, f)
		}
		d.faces = append(d.faces, f)
	}
	return nil
}

// faceTable maps a live face's sorted vertex triple (keyOf) to its index in
// the decoder's face list: open addressing with linear probing over int32
// slots, each holding a face index + 1 (0 is empty). A slot stores no key;
// a probe compares against the face the slot names, so every slot must name
// a face with its key — the decoder keeps that true across swap-removes.
// Deletion shifts the rest of the probe run back, so there are no
// tombstones, and the table doubles whenever it would pass half full, so a
// probe always reaches an empty slot.
type faceTable struct {
	slots []int32
	n     int   // occupied slots
	shift uint8 // 64 - log2(len(slots))
}

// newFaceTable sizes the table for capacity faces at most half full.
func newFaceTable(capacity int) faceTable {
	bits := uint8(3)
	for 1<<bits < 2*capacity {
		bits++
	}
	return faceTable{slots: make([]int32, 1<<bits), shift: 64 - bits}
}

// home returns the first slot probed for k: Fibonacci hashing of the
// triple packed into one word.
func (t *faceTable) home(k faceKey) int {
	h := uint64(uint32(k[0]))<<32 | uint64(uint32(k[1]))
	h = (h ^ uint64(uint32(k[2]))*0xC2B2AE3D27D4EB4F) * 0x9E3779B97F4A7C15
	return int(h >> t.shift)
}

// find returns the slot holding k, or -1.
func (t *faceTable) find(faces []mesh.Face, k faceKey) int {
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		v := t.slots[i]
		if v == 0 {
			return -1
		}
		if keyOf(faces[v-1]) == k {
			return i
		}
	}
}

// put maps k to face idx, replacing an existing mapping as a map
// assignment would, and reports whether k was new. faces need not hold idx
// yet.
func (t *faceTable) put(faces []mesh.Face, k faceKey, idx int32) bool {
	if i := t.find(faces, k); i >= 0 {
		t.slots[i] = idx + 1
		return false
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow(faces)
	}
	t.place(k, idx)
	t.n++
	return true
}

// place stores idx in the first empty slot of k's probe run.
func (t *faceTable) place(k faceKey, idx int32) {
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = idx + 1
}

// grow doubles the table and re-places every occupied slot.
func (t *faceTable) grow(faces []mesh.Face) {
	old := t.slots
	t.slots = make([]int32, 2*len(old))
	t.shift--
	for _, v := range old {
		if v != 0 {
			t.place(keyOf(faces[v-1]), v-1)
		}
	}
}

// remove empties slot i and shifts later members of its probe run back
// into the gap, so that every remaining key is still reachable from home.
func (t *faceTable) remove(faces []mesh.Face, i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		// Move slot j into the gap at i unless its home lies cyclically
		// in (i, j]: then the gap is not on its probe path.
		h := t.home(keyOf(faces[t.slots[j]-1]))
		if (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
}

// Decode reconstructs the object at the given LOD with a fresh decoder.
// Prefer NewDecoder + DecodeTo when walking several LODs upward.
func (c *Compressed) Decode(lod int) (*mesh.Mesh, error) {
	d, err := c.NewDecoder()
	if err != nil {
		return nil, err
	}
	return d.DecodeTo(lod)
}
