package mesh

import (
	"errors"
	"fmt"
)

// Validation errors.
var (
	ErrIndexOutOfRange  = errors.New("mesh: face references vertex out of range")
	ErrDegenerateFace   = errors.New("mesh: face repeats a vertex")
	ErrOpenEdge         = errors.New("mesh: edge with fewer than 2 incident faces (surface not closed)")
	ErrNonManifoldEdge  = errors.New("mesh: edge with more than 2 incident faces")
	ErrInconsistentWind = errors.New("mesh: inconsistent face orientation across an edge")
	ErrNegativeVolume   = errors.New("mesh: negative enclosed volume (faces wound inward)")
)

// Validate checks that the mesh is a closed, orientable, consistently wound
// 2-manifold — the polyhedron class assumed throughout the paper. It returns
// the first violation found, or nil.
func (m *Mesh) Validate() error {
	n := int32(len(m.Vertices))
	for fi, f := range m.Faces {
		for _, v := range f {
			if v < 0 || v >= n {
				return fmt.Errorf("%w: face %d vertex %d (n=%d)", ErrIndexOutOfRange, fi, v, n)
			}
		}
		if f[0] == f[1] || f[1] == f[2] || f[0] == f[2] {
			return fmt.Errorf("%w: face %d = %v", ErrDegenerateFace, fi, f)
		}
	}

	// Each undirected edge must appear exactly twice, once per direction
	// (consistent winding).
	type dirCount struct{ fwd, rev int }
	counts := make(map[EdgeKey]*dirCount, 3*len(m.Faces)/2+1)
	for _, f := range m.Faces {
		for k := 0; k < 3; k++ {
			a, b := f[k], f[(k+1)%3]
			key := MakeEdgeKey(a, b)
			c := counts[key]
			if c == nil {
				c = &dirCount{}
				counts[key] = c
			}
			if a == key.Lo {
				c.fwd++
			} else {
				c.rev++
			}
		}
	}
	for e, c := range counts {
		total := c.fwd + c.rev
		switch {
		case total < 2:
			return fmt.Errorf("%w: edge %v", ErrOpenEdge, e)
		case total > 2:
			return fmt.Errorf("%w: edge %v has %d faces", ErrNonManifoldEdge, e, total)
		case c.fwd != 1 || c.rev != 1:
			return fmt.Errorf("%w: edge %v (fwd=%d rev=%d)", ErrInconsistentWind, e, c.fwd, c.rev)
		}
	}

	if len(m.Faces) > 0 && m.Volume() < 0 {
		return ErrNegativeVolume
	}
	return nil
}
