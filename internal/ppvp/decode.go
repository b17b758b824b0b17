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
	faceIdx       map[faceKey]int32
	roundsApplied int
}

// NewDecoder returns a decoder positioned at LOD 0.
func (c *Compressed) NewDecoder() (*Decoder, error) {
	base, err := c.parseBase()
	if err != nil {
		return nil, err
	}
	// The header totals are only capacity hints; clamp them by what the
	// blob could possibly inflate to (DEFLATE expands ≤ ~1032×, a vertex
	// costs ≥ 3 raw bytes) so a corrupt header cannot force a huge
	// allocation before the sections are even parsed.
	vcap := clampCap(c.nVertsTotal, len(base.Vertices), len(c.blob))
	fcap := clampCap(c.nFacesTotal, len(base.Faces), len(c.blob))
	d := &Decoder{
		c:       c,
		verts:   append(make([]geom.Vec3, 0, vcap), base.Vertices...),
		faces:   append(make([]mesh.Face, 0, fcap), base.Faces...),
		faceIdx: make(map[faceKey]int32, fcap),
	}
	for i, f := range d.faces {
		d.faceIdx[keyOf(f)] = int32(i)
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

// CanAdvanceTo reports whether DecodeTo(lod) is legal for this decoder:
// progressive decoding can only move forward, so the rounds required by lod
// must be at or beyond the rounds already applied.
func (d *Decoder) CanAdvanceTo(lod int) bool {
	return lod >= 0 && lod <= d.c.MaxLOD() && d.c.roundsForLOD(lod) >= d.roundsApplied
}

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
	ringPts := make([]geom.Vec3, len(o.ring))
	for i, id := range o.ring {
		if id < 0 || id >= n {
			return fmt.Errorf("%w: ring reference %d out of %d vertices", ErrCorruptBlob, id, n)
		}
		ringPts[i] = d.verts[id]
	}
	// Recompute the patch triangulation from the recorded strategy; do not
	// cache it on the shared op, several decoders may work off the same
	// Compressed concurrently.
	patch := o.patch
	if patch == nil {
		var ok bool
		patch, ok = patchForStrategy(ringPts, o.strat)
		if !ok {
			return fmt.Errorf("%w: ring cannot be retriangulated", ErrCorruptBlob)
		}
	}

	// Delete the patch faces.
	for _, t := range patch {
		f := mesh.Face{o.ring[t[0]], o.ring[t[1]], o.ring[t[2]]}
		key := keyOf(f)
		idx, ok := d.faceIdx[key]
		if !ok {
			return fmt.Errorf("%w: patch face %v missing from mesh", ErrCorruptBlob, f)
		}
		last := int32(len(d.faces) - 1)
		if idx != last {
			d.faces[idx] = d.faces[last]
			d.faceIdx[keyOf(d.faces[idx])] = idx
		}
		d.faces = d.faces[:last]
		delete(d.faceIdx, key)
	}

	// Restore the vertex and its fan.
	vid := n
	d.verts = append(d.verts, o.pos)
	for i := range o.ring {
		f := mesh.Face{vid, o.ring[i], o.ring[(i+1)%len(o.ring)]}
		d.faceIdx[keyOf(f)] = int32(len(d.faces))
		d.faces = append(d.faces, f)
	}
	return nil
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
