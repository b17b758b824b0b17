package ppvp

import (
	"errors"
	"testing"

	"repro/internal/mesh"
)

// meshesEqual compares two meshes exactly (same vertex order, same faces).
func meshesEqual(a, b *mesh.Mesh) bool {
	if len(a.Vertices) != len(b.Vertices) || len(a.Faces) != len(b.Faces) {
		return false
	}
	for i := range a.Vertices {
		if a.Vertices[i] != b.Vertices[i] {
			return false
		}
	}
	for i := range a.Faces {
		if a.Faces[i] != b.Faces[i] {
			return false
		}
	}
	return true
}

// TestWarmStartEquivalence is the warm-start soundness property: for every
// pair j ≤ k, a decoder advanced to LOD j and later resumed to LOD k, and a
// decoder resumed from the snapshot Decode(j) returned, must both produce
// exactly the mesh a cold Decode(k) produces, vertex and face order
// included. The engine's decode cache relies on the second to start a miss
// from decoded geometry it already holds. It runs over every pinned
// fixture under both policies, plus two icospheres.
func TestWarmStartEquivalence(t *testing.T) {
	fixtures := append(pinnedFixtures(),
		fixture{"sphere", mesh.Icosphere(10, 3)}, fixture{"small", mesh.Icosphere(3, 1)})
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			for _, policy := range []Policy{PruneProtruding, PruneAny} {
				opts := DefaultOptions()
				opts.Policy = policy
				t.Run(policy.String(), func(t *testing.T) {
					c, _, err := Compress(fx.mesh, opts)
					if err != nil {
						t.Fatal(err)
					}
					checkWarmEquivalence(t, c)
				})
			}
		})
	}
}

func checkWarmEquivalence(t *testing.T, c *Compressed) {
	t.Helper()
	cold := make([]*mesh.Mesh, c.NumLODs())
	var err error
	for k := range cold {
		if cold[k], err = c.Decode(k); err != nil {
			t.Fatal(err)
		}
	}
	for j := range cold {
		for k := j; k < len(cold); k++ {
			d, err := c.NewDecoder()
			if err != nil {
				t.Fatal(err)
			}
			mj, err := d.DecodeTo(j)
			if err != nil {
				t.Fatalf("DecodeTo(%d): %v", j, err)
			}
			if !meshesEqual(mj, cold[j]) {
				t.Fatalf("warm intermediate at LOD %d differs from cold", j)
			}
			mk, err := d.DecodeTo(k)
			if err != nil {
				t.Fatalf("resume DecodeTo(%d) from %d: %v", k, j, err)
			}
			if !meshesEqual(mk, cold[k]) {
				t.Errorf("warm decode %d→%d differs from cold Decode(%d)", j, k, k)
			}

			r, err := c.ResumeDecoder(j, cold[j])
			if err != nil {
				t.Fatalf("ResumeDecoder(%d): %v", j, err)
			}
			if r.RoundsApplied() != c.RoundsForLOD(j) {
				t.Errorf("ResumeDecoder(%d) starts at round %d, want %d", j, r.RoundsApplied(), c.RoundsForLOD(j))
			}
			mr, err := r.DecodeTo(k)
			if err != nil {
				t.Fatalf("ResumeDecoder(%d).DecodeTo(%d): %v", j, k, err)
			}
			if !meshesEqual(mr, cold[k]) {
				t.Errorf("resumed decode %d→%d differs from cold Decode(%d)", j, k, k)
			}
		}
	}
}

// TestResumeDecoderRefusesDuplicateFaces hands ResumeDecoder a snapshot in
// which two faces share a vertex set, the state no decode produces: it must
// refuse it, so that the caller decodes cold rather than from a face table
// that a cold decode would not have built.
func TestResumeDecoderRefusesDuplicateFaces(t *testing.T) {
	c, _, err := Compress(mesh.Icosphere(3, 1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Decode(1)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Faces[0]
	dup := &mesh.Mesh{Vertices: m.Vertices, Faces: append(append([]mesh.Face(nil), m.Faces...), mesh.Face{f[0], f[2], f[1]})}
	if _, err := c.ResumeDecoder(1, dup); !errors.Is(err, ErrCorruptBlob) {
		t.Errorf("ResumeDecoder on a duplicated face: err = %v, want ErrCorruptBlob", err)
	}
	if _, err := c.ResumeDecoder(c.NumLODs(), m); !errors.Is(err, ErrLODOutOfRange) {
		t.Errorf("ResumeDecoder past the top LOD: err = %v, want ErrLODOutOfRange", err)
	}
}

// TestRoundsAccounting pins the decoder's round bookkeeping: the rounds a
// resumed decode applies plus the rounds it skipped must equal the cold
// cost, which is what makes the cache's RoundsApplied/RoundsSkipped
// counters sum to the cold-path total.
func TestRoundsAccounting(t *testing.T) {
	m := mesh.Icosphere(8, 3)
	c, _, err := Compress(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	top := c.MaxLOD()
	d, err := c.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}
	if d.RoundsApplied() != 0 {
		t.Fatalf("fresh decoder has %d rounds applied", d.RoundsApplied())
	}
	mid := top / 2
	if _, err := d.DecodeTo(mid); err != nil {
		t.Fatal(err)
	}
	skipped := d.RoundsApplied()
	if skipped != c.RoundsForLOD(mid) {
		t.Errorf("RoundsApplied = %d after LOD %d, want %d", skipped, mid, c.RoundsForLOD(mid))
	}
	if _, err := d.DecodeTo(top); err != nil {
		t.Fatal(err)
	}
	applied := d.RoundsApplied() - skipped
	if skipped+applied != c.RoundsForLOD(top) {
		t.Errorf("skipped %d + applied %d != cold cost %d", skipped, applied, c.RoundsForLOD(top))
	}
	// Rewinding is refused, not silently wrong.
	if _, err := d.DecodeTo(0); err == nil {
		t.Error("DecodeTo(0) on advanced decoder did not error")
	}
}
