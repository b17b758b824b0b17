package ppvp

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// FuzzDecode feeds arbitrary blobs through the full parse+decode path. The
// invariants under fuzzing: corrupt input returns a mesh or an error; it
// never panics, never hangs and never allocates unboundedly from
// header-claimed sizes; and a decode resumed (ResumeDecoder) from the mesh
// of any LOD whose decode succeeds reaches the top LOD with exactly the
// cold decode's mesh, or both fail.
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
		top, coldErr := d.DecodeTo(c.MaxLOD())
		if coldErr == nil && top == nil {
			t.Fatal("DecodeTo returned nil mesh and nil error")
		}
		for j := 0; j < c.MaxLOD(); j++ {
			mj, err := c.Decode(j)
			if err != nil {
				continue
			}
			r, err := c.ResumeDecoder(j, mj)
			if err != nil {
				t.Fatalf("ResumeDecoder(%d) refused the mesh Decode(%d) returned: %v", j, j, err)
			}
			got, err := r.DecodeTo(c.MaxLOD())
			if (err == nil) != (coldErr == nil) {
				t.Fatalf("from LOD %d: resumed decode err %v, cold decode err %v", j, err, coldErr)
			}
			if err == nil && !meshesEqual(got, top) {
				t.Fatalf("from LOD %d: resumed decode differs from the cold one", j)
			}
		}
	})
}
