package mesh

import (
	"slices"
	"sort"
)

// EdgeKey identifies an undirected edge by its sorted vertex pair.
type EdgeKey struct {
	Lo, Hi int32
}

// MakeEdgeKey returns the canonical key for the edge {a, b}.
func MakeEdgeKey(a, b int32) EdgeKey {
	if a > b {
		a, b = b, a
	}
	return EdgeKey{a, b}
}

// OneRing returns the ordered cycle of neighbor vertices around v, walking
// faces — all the faces incident to v, which the caller keeps track of — in
// CCW order as seen from outside. The cycle starts at the CCW successor of v
// in faces[0] and is appended to ring[:0]. ok is false when the
// neighborhood is not a simple disk (non-manifold, boundary, or a duplicated
// neighbor), in which case v must not be removed by decimation.
//
// For a face (v, a, b) the ring contributes the directed edge a→b; the walk
// chains these edges with a scan of the fan per step — no map, a fan is a
// handful of faces. It closes into a simple disk iff every step finds
// exactly one edge leaving the current neighbor, no neighbor repeats, and
// the last edge returns to the first neighbor.
func OneRing(v int32, faces []Face, ring []int32) (_ []int32, ok bool) {
	if len(faces) < 3 {
		return nil, false
	}
	ring = ring[:0]
	cur, _ := faces[0].ringEdge(v)
	for range faces {
		if slices.Contains(ring, cur) {
			return nil, false // duplicated neighbor
		}
		var next int32
		found := 0
		for _, f := range faces {
			if from, to := f.ringEdge(v); from == cur {
				next = to
				found++
			}
		}
		if found != 1 {
			return nil, false // open fan (boundary vertex) or non-manifold fan
		}
		ring = append(ring, cur)
		cur = next
	}
	return ring, cur == ring[0]
}

// ringEdge returns the directed edge face f contributes to the one-ring of
// its vertex v: the two vertices after v in CCW order.
func (f Face) ringEdge(v int32) (from, to int32) {
	switch v {
	case f[0]:
		return f[1], f[2]
	case f[1]:
		return f[2], f[0]
	default:
		return f[0], f[1]
	}
}

// Edges returns all undirected edges of the mesh, sorted for determinism.
func (m *Mesh) Edges() []EdgeKey {
	set := make(map[EdgeKey]struct{}, 3*len(m.Faces)/2+1)
	for _, f := range m.Faces {
		for k := 0; k < 3; k++ {
			set[MakeEdgeKey(f[k], f[(k+1)%3])] = struct{}{}
		}
	}
	edges := make([]EdgeKey, 0, len(set))
	for e := range set {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Lo != edges[j].Lo {
			return edges[i].Lo < edges[j].Lo
		}
		return edges[i].Hi < edges[j].Hi
	})
	return edges
}
