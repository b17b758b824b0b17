package ppvp

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/index/aabbtree"
	"repro/internal/mesh"
)

// faceKey identifies a face by its sorted vertex triple. In a valid manifold
// mesh no two faces share the same vertex set, so the sorted key is unique;
// the decoder's faceTable finds the oriented face by it.
type faceKey [3]int32

func keyOf(f mesh.Face) faceKey {
	a, b, c := f[0], f[1], f[2]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return faceKey{a, b, c}
}

// work is the mutable mesh state threaded through the decimation rounds.
// Vertices are tombstoned (never reindexed) so ops can reference original
// indices throughout the encode. Connectivity is one structure, kept alive
// across rounds: the live faces incident to each vertex.
type work struct {
	verts  []geom.Vec3
	dead   []bool
	vfaces [][]mesh.Face // live faces incident to each vertex, as oriented in the mesh
	nfaces int

	// Scratch reused by every candidate of every round of one Compress.
	ring   []int32
	pts    []geom.Vec3
	tri    triScratch
	use    []uint8     // patchValid's n×n edge-use counts, zero between calls
	faces  []mesh.Face // liveFaces' result
	carved tetGrid
}

// newWork starts from the given vertices (shared, never written) and faces.
func newWork(verts []geom.Vec3, faces []mesh.Face) *work {
	w := &work{
		verts:  verts,
		dead:   make([]bool, len(verts)),
		vfaces: make([][]mesh.Face, len(verts)),
	}
	for _, f := range faces {
		w.addFace(f)
	}
	return w
}

func (w *work) addFace(f mesh.Face) {
	for _, v := range f {
		w.vfaces[v] = append(w.vfaces[v], f)
	}
	w.nfaces++
}

// uses returns the predicate "the face has vertex v".
func uses(v int32) func(mesh.Face) bool {
	return func(f mesh.Face) bool { return f[0] == v || f[1] == v || f[2] == v }
}

// cmpFaces orders faces by their sorted vertex triples.
func cmpFaces(f, g mesh.Face) int {
	a, b := keyOf(f), keyOf(g)
	return slices.Compare(a[:], b[:])
}

// removeFan deletes every face incident to v; ring is v's one-ring.
func (w *work) removeFan(v int32, ring []int32) {
	for _, r := range ring {
		w.vfaces[r] = slices.DeleteFunc(w.vfaces[r], uses(v))
	}
	w.nfaces -= len(w.vfaces[v])
	w.vfaces[v] = nil
}

// hasEdge reports whether a live face uses the undirected edge {a, b}.
func (w *work) hasEdge(a, b int32) bool { return slices.ContainsFunc(w.vfaces[a], uses(b)) }

// hasFace reports whether a live face has f's vertex set, in either
// orientation.
func (w *work) hasFace(f mesh.Face) bool {
	k := keyOf(f)
	return slices.ContainsFunc(w.vfaces[f[0]], func(g mesh.Face) bool { return keyOf(g) == k })
}

// liveFaces lists every live face once, in w.faces.
func (w *work) liveFaces() []mesh.Face {
	w.faces = w.faces[:0]
	for v, fs := range w.vfaces {
		for _, f := range fs {
			if keyOf(f)[0] == int32(v) {
				w.faces = append(w.faces, f)
			}
		}
	}
	return w.faces
}

// ringOf returns the ordered CCW one-ring of v and its positions, in
// scratch the next call overwrites. The ring starts at the CCW successor of
// v in the incident face with the smallest sorted key — part of the
// bitstream, because the strategy byte and the ring order are relative to
// it. ok is false when v's neighborhood is not a simple disk.
func (w *work) ringOf(v int32) (ring []int32, pts []geom.Vec3, ok bool) {
	fs := w.vfaces[v]
	if len(fs) < 3 {
		return nil, nil, false
	}
	for i := range fs { // smallest key first: the ring starts there
		if cmpFaces(fs[i], fs[0]) < 0 {
			fs[0], fs[i] = fs[i], fs[0]
		}
	}
	if ring, ok = mesh.OneRing(v, fs, w.ring); !ok {
		return nil, nil, false
	}
	w.ring, w.pts = ring, w.pts[:0]
	for _, r := range ring {
		w.pts = append(w.pts, w.verts[r])
	}
	return ring, w.pts, true
}

// decimateRound runs one round of decimation: it removes a maximal
// independent set of removable vertices (under the policy) in ascending
// index order. The returned ops record the removals in application order.
//
// A round reads the live incidence and, under the PPVP policy, an AABB tree
// over the round-start surface; it maintains the incidence, the face count
// and the grid of carved tetrahedra as it goes, and rebuilds nothing. A
// removal touches only the faces of the removed vertex and its ring, and
// the ring is locked for the rest of the round, so every candidate still
// sees the incidence it had at round start.
func (w *work) decimateRound(policy Policy, minFaces int, stats *Stats) []op {
	// The acute-angle test of §3.1 is evaluated per patch face; with a
	// folded hole triangulation it can pass even though part of the patch
	// pokes outside the solid, which would break the progressive-subset
	// guarantee. Under the PPVP policy every accepted patch is therefore
	// verified against the round-start surface (indexed by an AABB tree,
	// whose shape and leaf order no verdict depends on) minus the
	// tetrahedra already carved out this round.
	var tree *aabbtree.Tree
	var diag float64
	if policy == PruneProtruding {
		faces := w.liveFaces()
		tree = aabbtree.BuildFaces(w.verts, faces, nil)
		diag = tree.Bounds().Diagonal()
		w.carved.reset(tree.Bounds(), len(faces))
	}

	locked := make([]bool, len(w.verts))
	var ops []op

	for v := int32(0); int(v) < len(w.verts); v++ {
		if w.dead[v] || locked[v] {
			continue
		}
		if w.nfaces-2 < minFaces {
			break // removing any vertex would shrink the mesh below the floor
		}
		ring, pts, ok := w.ringOf(v)
		if !ok {
			continue
		}

		// The prune-only guarantee depends on the hole triangulation: a
		// folded patch can fail the protruding test even for a vertex that
		// is geometrically protruding. Try the ear-clipping result first,
		// then every fan, and keep the first triangulation that is both
		// manifold-safe and (under PPVP) protruding.
		var chosen [][3]uint16
		var strat uint16
		validSeen, protrudingSeen := false, false
		tryPatch := func(patch [][3]uint16, s uint16) bool {
			if patch == nil || !w.patchValid(ring, patch) {
				return false
			}
			validSeen = true
			prot := isProtruding(w.verts[v], pts, patch)
			if prot {
				protrudingSeen = true
			}
			if policy == PruneProtruding && !(prot && patchContained(pts, patch, tree, &w.carved, diag)) {
				return false
			}
			chosen, strat = patch, s
			return true
		}
		if ear, ok := triangulateRing(pts, &w.tri); !ok || !tryPatch(ear, 0) {
			for apex := 0; apex < len(ring); apex++ {
				if tryPatch(fanTriangulation(len(ring), apex, w.tri.tris), uint16(apex+1)) {
					break
				}
			}
		}
		if !validSeen {
			continue
		}
		stats.VerticesExamined++
		if protrudingSeen {
			stats.VerticesProtruding++
		}
		if chosen == nil {
			continue
		}

		// Apply the removal: delete the fan, add the patch. The op keeps its
		// own copies of the ring and the patch; both live in scratch here.
		o := op{pos: w.verts[v], ring: slices.Clone(ring), patch: slices.Clone(chosen), strat: strat, origIdx: v}
		w.removeFan(v, ring)
		w.dead[v] = true
		for _, t := range o.patch {
			w.addFace(mesh.Face{ring[t[0]], ring[t[1]], ring[t[2]]})
			if policy == PruneProtruding {
				w.carved.add(makeTet(pts[t[0]], pts[t[1]], pts[t[2]], w.verts[v]))
			}
		}
		for _, r := range ring {
			locked[r] = true
		}
		stats.VerticesRemoved++
		ops = append(ops, o)
	}
	return ops
}

// patchValid checks that inserting the patch keeps the mesh a 2-manifold:
//
//   - every patch triangle is non-degenerate,
//   - no patch triangle duplicates an existing face (in either orientation),
//   - every interior diagonal is a brand-new edge used by exactly two patch
//     triangles, and every ring boundary edge a triangle uses is used by
//     exactly one.
//
// Patch indices are ring-local, so all of it is index arithmetic: (i, j) is
// a ring edge iff |i−j| is 1 or n−1, and the use counts live in an n×n byte
// table that is counted up, judged, and counted back down to zero.
func (w *work) patchValid(ring []int32, patch [][3]uint16) bool {
	n := len(ring)
	if len(w.use) < n*n {
		w.use = make([]uint8, n*n)
	}
	for _, t := range patch {
		for k := 0; k < 3; k++ {
			// More than two uses are as invalid as three, and saturating
			// there keeps the byte from wrapping.
			if i, j := patchEdge(t, k); w.use[i*n+j] < 3 {
				w.use[i*n+j]++
			}
		}
	}
	ok := w.patchFits(ring, patch)
	for _, t := range patch {
		for k := 0; k < 3; k++ {
			i, j := patchEdge(t, k)
			w.use[i*n+j] = 0
		}
	}
	return ok
}

// patchEdge returns edge k of patch triangle t as ascending ring-local
// indices.
func patchEdge(t [3]uint16, k int) (i, j int) {
	i, j = int(t[k]), int(t[(k+1)%3])
	if i > j {
		i, j = j, i
	}
	return i, j
}

// patchFits is patchValid's verdict, given the edge-use counts in w.use.
func (w *work) patchFits(ring []int32, patch [][3]uint16) bool {
	n := len(ring)
	for _, t := range patch {
		f := mesh.Face{ring[t[0]], ring[t[1]], ring[t[2]]}
		if f[0] == f[1] || f[1] == f[2] || f[0] == f[2] || w.hasFace(f) {
			return false
		}
		tri := geom.Triangle{A: w.verts[f[0]], B: w.verts[f[1]], C: w.verts[f[2]]}
		if tri.IsDegenerate() {
			return false
		}
		for k := 0; k < 3; k++ {
			i, j := patchEdge(t, k)
			if d := j - i; d == 1 || d == n-1 {
				if w.use[i*n+j] != 1 {
					return false
				}
			} else if w.use[i*n+j] != 2 || w.hasEdge(ring[i], ring[j]) {
				// An interior diagonal must not already exist in the mesh.
				return false
			}
		}
	}
	return true
}

// isProtruding implements the paper's §3.1 test: vertex v is protruding iff
// for every newly added (patch) face, the angle between the face's outward
// normal and the vector from the face to v is acute or right — i.e. removal
// only cuts solid tetrahedra off the polyhedron (or has no impact), never
// fills a pit.
func isProtruding(v geom.Vec3, pts []geom.Vec3, patch [][3]uint16) bool {
	for _, t := range patch {
		tri := geom.Triangle{A: pts[t[0]], B: pts[t[1]], C: pts[t[2]]}
		n := tri.Normal()
		d := v.Sub(tri.Centroid())
		dot := n.Dot(d)
		// Scaled tolerance: treat |dot| below noise as the "no impact" case.
		tol := 1e-12 * n.Len() * (d.Len() + 1)
		if dot < -tol {
			return false
		}
	}
	return true
}
