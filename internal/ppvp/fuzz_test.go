package ppvp

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// FuzzDecode feeds arbitrary blobs through the full parse+decode path. The
// invariant under fuzzing: corrupt input returns a mesh or an error; it
// never panics, never hangs and never allocates unboundedly from
// header-claimed sizes.
func FuzzDecode(f *testing.F) {
	seed := func(m *mesh.Mesh, opts Options) {
		c, _, err := Compress(m, opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(c.Bytes())
	}
	seed(mesh.Icosphere(1, 1), DefaultOptions())
	seed(mesh.Icosphere(2, 2), Options{Rounds: 8, RoundsPerLOD: 2, QuantBits: 12})
	seed(mesh.Cube(geom.V(0, 0, 0), geom.V(1, 1, 1)), DefaultOptions())
	// A header that understates the face total (the base mesh's count): the
	// face table sized from it must grow rather than fill up.
	c, _, err := Compress(mesh.Icosphere(2, 2), DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	base, err := c.parseBase()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withFaceTotal(c.Bytes(), len(base.Faces)))
	f.Add([]byte{})
	f.Add([]byte("3DPR"))

	f.Fuzz(func(t *testing.T, blob []byte) {
		c, err := FromBytes(blob)
		if err != nil {
			return
		}
		d, err := c.NewDecoder()
		if err != nil {
			return
		}
		m, err := d.DecodeTo(c.MaxLOD())
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("DecodeTo returned nil mesh and nil error")
		}
	})
}
