package ppvp

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/aabbtree"
	"repro/internal/mesh"
)

// mapDecoder is the decoder as it stood before the face table: a Go map
// from each live face's sorted vertex triple to its index, and fresh ring
// and triangulation buffers per op. It is the reference the face table is
// held to; face order decides partition assignment and tree tie-breaks, so
// the two must agree on it exactly.
type mapDecoder struct {
	c             *Compressed
	verts         []geom.Vec3
	faces         []mesh.Face
	faceIdx       map[faceKey]int32
	roundsApplied int
}

func newMapDecoder(c *Compressed) (*mapDecoder, error) {
	base, err := c.parseBase()
	if err != nil {
		return nil, err
	}
	d := &mapDecoder{
		c:       c,
		verts:   append([]geom.Vec3(nil), base.Vertices...),
		faces:   append([]mesh.Face(nil), base.Faces...),
		faceIdx: make(map[faceKey]int32, len(base.Faces)),
	}
	for i, f := range d.faces {
		d.faceIdx[keyOf(f)] = int32(i)
	}
	return d, nil
}

func (d *mapDecoder) decodeTo(lod int) (*mesh.Mesh, error) {
	for target := d.c.roundsForLOD(lod); d.roundsApplied < target; d.roundsApplied++ {
		rd, err := d.c.parseRound(d.roundsApplied)
		if err != nil {
			return nil, err
		}
		for i := range rd.ops {
			if err := d.applyOp(&rd.ops[i]); err != nil {
				return nil, err
			}
		}
	}
	return &mesh.Mesh{
		Vertices: append([]geom.Vec3(nil), d.verts...),
		Faces:    append([]mesh.Face(nil), d.faces...),
	}, nil
}

func (d *mapDecoder) applyOp(o *op) error {
	n := int32(len(d.verts))
	ringPts := make([]geom.Vec3, len(o.ring))
	for i, id := range o.ring {
		if id < 0 || id >= n {
			return ErrCorruptBlob
		}
		ringPts[i] = d.verts[id]
	}
	patch, ok := patchForStrategy(ringPts, o.strat, new(triScratch))
	if !ok {
		return ErrCorruptBlob
	}
	for _, t := range patch {
		key := keyOf(mesh.Face{o.ring[t[0]], o.ring[t[1]], o.ring[t[2]]})
		idx, ok := d.faceIdx[key]
		if !ok {
			return ErrCorruptBlob
		}
		last := int32(len(d.faces) - 1)
		if idx != last {
			d.faces[idx] = d.faces[last]
			d.faceIdx[keyOf(d.faces[idx])] = idx
		}
		d.faces = d.faces[:last]
		delete(d.faceIdx, key)
	}
	d.verts = append(d.verts, o.pos)
	for i := range o.ring {
		f := mesh.Face{n, o.ring[i], o.ring[(i+1)%len(o.ring)]}
		d.faceIdx[keyOf(f)] = int32(len(d.faces))
		d.faces = append(d.faces, f)
	}
	return nil
}

// pinnedBlob is one blob TestBlobsPinned pins, parsed afresh from its bytes
// so no decode reuses the encoder's cached sections.
type pinnedBlob struct {
	name string
	c    *Compressed
}

func pinnedBlobList(t *testing.T) []pinnedBlob {
	t.Helper()
	var out []pinnedBlob
	for _, fx := range pinnedFixtures() {
		for _, policy := range []Policy{PruneProtruding, PruneAny} {
			rounds10 := DefaultOptions()
			rounds10.Rounds = 10
			rounds10.Policy = policy
			for _, cfg := range []struct {
				name string
				opts Options
			}{{"rounds10", rounds10}, {"zero", Options{Policy: policy}}} {
				enc, _, err := Compress(fx.mesh, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}
				c, err := FromBytes(enc.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, pinnedBlob{fmt.Sprintf("%s/%s/%s", fx.name, policy, cfg.name), c})
			}
		}
	}
	return out
}

// sameMesh fails the test unless got has want's vertices and faces, order
// included.
func sameMesh(t *testing.T, what string, got, want *mesh.Mesh) {
	t.Helper()
	if !reflect.DeepEqual(got.Vertices, want.Vertices) || !reflect.DeepEqual(got.Faces, want.Faces) {
		t.Fatalf("%s: decoded %v, the map-based reference %v (or the same counts in another order)", what, got, want)
	}
}

// TestDecoderMatchesMapReference holds the face-table decoder to the
// map-based one on every pinned blob at every LOD, cold and on every warm
// ladder step DecodeTo(j) → DecodeTo(k).
func TestDecoderMatchesMapReference(t *testing.T) {
	for _, b := range pinnedBlobList(t) {
		c := b.c
		for j := 0; j <= c.MaxLOD(); j++ {
			for k := j; k <= c.MaxLOD(); k++ {
				d, err := c.NewDecoder()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := newMapDecoder(c)
				if err != nil {
					t.Fatal(err)
				}
				for _, lod := range []int{j, k} {
					got, err := d.DecodeTo(lod)
					if err != nil {
						t.Fatalf("%s: DecodeTo(%d): %v", b.name, lod, err)
					}
					want, err := ref.decodeTo(lod)
					if err != nil {
						t.Fatalf("%s: reference decodeTo(%d): %v", b.name, lod, err)
					}
					sameMesh(t, fmt.Sprintf("%s: ladder %d → %d at %d", b.name, j, k, lod), got, want)
				}
			}
		}
	}
}

// TestTreeFromFacesMatchesSoABuild holds the tree a mesh builds before any
// face-order packing exists to the one built from that packing: for every
// pinned blob at every LOD, aabbtree.BuildFaces over the decoded faces must
// equal BuildSoA over their SoA, nodes, tree-ordered lanes and tree order
// alike, and BuildFaces given that tree order must rebuild the same tree.
func TestTreeFromFacesMatchesSoABuild(t *testing.T) {
	for _, b := range pinnedBlobList(t) {
		d, err := b.c.NewDecoder()
		if err != nil {
			t.Fatal(err)
		}
		for lod := 0; lod <= b.c.MaxLOD(); lod++ {
			m, err := d.DecodeTo(lod)
			if err != nil {
				t.Fatal(err)
			}
			direct := aabbtree.BuildFaces(m.Vertices, m.Faces, nil)
			if packed := aabbtree.BuildSoA(m.SoA()); !reflect.DeepEqual(direct, packed) {
				t.Fatalf("%s LOD %d (%d faces): BuildFaces differs from BuildSoA(SoA())", b.name, lod, len(m.Faces))
			}
			if rebuilt := aabbtree.BuildFaces(m.Vertices, m.Faces, direct.Order()); !reflect.DeepEqual(rebuilt, direct) {
				t.Fatalf("%s LOD %d (%d faces): BuildFaces from its own tree order differs", b.name, lod, len(m.Faces))
			}
		}
	}
}

// withFaceTotal returns blob with its header's face total replaced by nf.
// The total is a varint and sections are located by their lengths, so the
// rewritten blob parses whatever the new varint's width.
func withFaceTotal(blob []byte, nf int) []byte {
	off := 8 // magic, version, policy, quantBits, roundsPerLOD
	_, w := binary.Uvarint(blob[off:])
	off += w + 9*8 // nRounds, origin, cell, boundsMax
	_, w = binary.Uvarint(blob[off:])
	off += w // nVertsTotal
	_, w = binary.Uvarint(blob[off:])
	out := binary.AppendUvarint(append([]byte(nil), blob[:off]...), uint64(nf))
	return append(out, blob[off+w:]...)
}

// TestDecodeUnderstatedFaceTotal feeds a header whose face total is only
// the base mesh's: the face table, sized from that hint, must grow and the
// decode must give the honest mesh at every LOD.
func TestDecodeUnderstatedFaceTotal(t *testing.T) {
	honest, _, err := Compress(vesselFixture(1, 20, 22), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := honest.parseBase()
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromBytes(withFaceTotal(honest.Bytes(), len(base.Faces)))
	if err != nil {
		t.Fatal(err)
	}
	if c.nFacesTotal != len(base.Faces) {
		t.Fatalf("rewritten header claims %d faces, want %d", c.nFacesTotal, len(base.Faces))
	}
	d, err := c.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}
	slots := len(d.faceIdx.slots)
	for lod := 0; lod <= c.MaxLOD(); lod++ {
		got, err := d.DecodeTo(lod)
		if err != nil {
			t.Fatalf("DecodeTo(%d): %v", lod, err)
		}
		want, err := honest.Decode(lod)
		if err != nil {
			t.Fatal(err)
		}
		if !meshesEqual(got, want) {
			t.Fatalf("LOD %d: %v, honest header %v", lod, got, want)
		}
	}
	if grown := len(d.faceIdx.slots); grown <= slots || 2*len(d.faces) > grown {
		t.Fatalf("face table %d → %d slots for %d faces; want it grown and at most half full", slots, grown, len(d.faces))
	}
}

// TestTopFacesBound: on every pinned fixture and LOD, an honest header's
// face total is within what the blob backs, so TopFaces returns it as is;
// one rewritten to claim 1<<28 faces is bounded by the rounds left, which
// at the top LOD leaves exactly the decoded count.
func TestTopFacesBound(t *testing.T) {
	for _, fx := range pinnedFixtures() {
		honest, _, err := Compress(fx.mesh, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		hostile, err := FromBytes(withFaceTotal(honest.Bytes(), 1<<28))
		if err != nil {
			t.Fatal(err)
		}
		for lod := 0; lod <= honest.MaxLOD(); lod++ {
			m, err := honest.Decode(lod)
			if err != nil {
				t.Fatal(err)
			}
			f := len(m.Faces)
			if got := honest.TopFaces(lod, f); got != honest.NumFaces() {
				t.Errorf("%s LOD %d: honest TopFaces = %d, header says %d", fx.name, lod, got, honest.NumFaces())
			}
			got := hostile.TopFaces(lod, f)
			if lod == honest.MaxLOD() && got != f || got < f || got >= 1<<28 {
				t.Errorf("%s LOD %d of %d: overstated TopFaces = %d for %d decoded faces", fx.name, lod, honest.MaxLOD(), got, f)
			}
		}
	}
}

// TestDecodeAllocationBudget trips when the decoder slides back into
// allocating per op (a map entry, ring buffer or triangulation scratch per
// removed vertex): a cold top-LOD decode of a 320-face nucleus whose
// sections are already parsed allocates the decoder, its buffers and face
// table, and the snapshot — about a dozen allocations, against hundreds
// with a map and per-op buffers. The blob is parsed from its bytes, as a
// loaded dataset's are, so every op re-derives its patch.
func TestDecodeAllocationBudget(t *testing.T) {
	enc, _, err := Compress(nucleusFixture(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromBytes(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	top := c.MaxLOD()
	if _, err := c.Decode(top); err != nil { // parse every section once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Decode(top); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 16
	if allocs > budget {
		t.Errorf("cold top-LOD decode of a 320-face nucleus: %.0f allocations, budget %d", allocs, budget)
	}
}
