// Package mesh is a fixture stub of repro/internal/mesh: hotalloc matches
// the Mesh type and its Triangles method by package-path suffix, so this
// stand-in exercises the analyzer without importing the real engine.
package mesh

type Triangle struct{ A, B, C [3]float64 }

type Mesh struct{ faces []Triangle }

func (m *Mesh) Triangles() []Triangle {
	out := make([]Triangle, len(m.faces))
	copy(out, m.faces)
	return out
}

// SoA mimics the memoized lane accessor the hot path uses instead.
func (m *Mesh) SoA() []Triangle { return m.faces }

// Groups mimics the memoized partition accessor: build runs only when the
// mesh has no partition yet.
func (m *Mesh) Groups(build func() [][]int32) [][]int32 { return build() }
