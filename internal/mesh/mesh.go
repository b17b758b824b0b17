// Package mesh implements the polygonal-model substrate of 3DPro: indexed
// triangle meshes (polyhedrons), adjacency queries, manifold validation,
// surface measures, and OFF-format I/O.
//
// A polyhedron in the sense of the paper is a closed, orientable triangle
// mesh with CCW-ordered faces (outer side determined by the right-hand
// rule) and no unnecessary edge junctions.
package mesh

import (
	"fmt"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/index/aabbtree"
)

// Face is a triangle referencing three vertex indices in CCW order as seen
// from outside the polyhedron.
type Face [3]int32

// Mesh is an indexed triangle mesh.
//
// Mesh contains an internal cache and must not be copied by value after
// first use; pass *Mesh around (as all the code in this module does).
type Mesh struct {
	Vertices []geom.Vec3
	Faces    []Face

	// The derived memos below are built lazily, at most once per mesh state,
	// and shared by every reader of a read-only mesh (decoded LODs queried
	// many times). They live exactly as long as the mesh: whoever holds the
	// mesh — the decode cache, for the query engine — holds its accelerators,
	// and dropping the mesh drops them. Mutating methods drop them all.

	// soa is the struct-of-arrays packing consumed by the batch kernels.
	// Once tree is built it holds the tree-ordered lanes.
	soa atomic.Pointer[geom.TriSoA]
	// tree is the AABB tree over soa's lanes (accel.go).
	tree atomic.Pointer[aabbtree.Tree]
	// groups is the sub-object partition (accel.go).
	groups atomic.Pointer[Groups]

	// treeOrder, set by Bare and dropped by mutating methods, is the tree
	// order of an earlier AABB-tree build over these faces: Tree rebuilds
	// that tree from it in O(n) (accel.go).
	treeOrder []int32

	// onFootprint, when set, is called after every memo change.
	onFootprint atomic.Pointer[func()]
}

// New returns an empty mesh with the given capacities pre-allocated.
func New(nv, nf int) *Mesh {
	return &Mesh{
		Vertices: make([]geom.Vec3, 0, nv),
		Faces:    make([]Face, 0, nf),
	}
}

// NumVertices returns the vertex count.
func (m *Mesh) NumVertices() int { return len(m.Vertices) }

// NumFaces returns the face count.
func (m *Mesh) NumFaces() int { return len(m.Faces) }

// Triangle materializes face f as a geometric triangle.
func (m *Mesh) Triangle(f int) geom.Triangle {
	face := m.Faces[f]
	return geom.Triangle{
		A: m.Vertices[face[0]],
		B: m.Vertices[face[1]],
		C: m.Vertices[face[2]],
	}
}

// Triangles materializes all faces. The result aliases no mesh state.
func (m *Mesh) Triangles() []geom.Triangle {
	out := make([]geom.Triangle, len(m.Faces))
	for i := range m.Faces {
		out[i] = m.Triangle(i)
	}
	return out
}

// SoA returns the struct-of-arrays triangle layout for the current mesh
// state, packed straight from Vertices and Faces at most once per state and
// shared across callers. The order of the triangles is unspecified: building
// the AABB tree (see Tree) re-lays the lanes out in tree order. Every
// consumer is a cross-product kernel, a tree descent, or a containment
// count, none of which depends on face order. The returned value is
// read-only; mutating methods drop it along with the other memos.
// Concurrent first calls may race to build; one packing is published and
// the losers' duplicates are discarded.
func (m *Mesh) SoA() *geom.TriSoA {
	if p := m.soa.Load(); p != nil {
		return p
	}
	s := geom.NewTriSoA(len(m.Faces))
	for i, f := range m.Faces {
		s.Set(i, m.Vertices[f[0]], m.Vertices[f[1]], m.Vertices[f[2]])
	}
	if m.soa.CompareAndSwap(nil, s) {
		m.footprintChanged()
		return s
	}
	return m.soa.Load()
}

// FootprintBytes returns the resident size of the mesh plus whatever derived
// memos (SoA lanes, AABB-tree nodes and tree order, partition groups) are
// materialized right now, and the tree-order hint Bare left on it (4 B per
// face). The order is counted once: a tree built from the hint shares its
// slice. It grows as memos are built; an owner that budgets by it (the
// decode cache) registers with OnFootprintChange to hear when.
func (m *Mesh) FootprintBytes() int64 {
	b := int64(len(m.Vertices))*24 + int64(len(m.Faces))*12
	soa := m.soa.Load()
	b += soa.Bytes()
	t := m.tree.Load()
	if t != nil {
		b += t.NodeBytes()
	}
	if h := m.treeOrder; len(h) > 0 && (t == nil || len(t.Order()) == 0 || &t.Order()[0] != &h[0]) {
		b += int64(cap(h)) * 4
	}
	if g := m.groups.Load(); g != nil {
		b += g.bytes(soa)
	}
	return b
}

// OnFootprintChange registers fn to be called, on the goroutine that caused
// it, after each change to the set of materialized memos — the moments
// FootprintBytes changes. A mesh reports to one owner: a later call replaces
// fn. fn must not build memos of this mesh.
func (m *Mesh) OnFootprintChange(fn func()) {
	m.onFootprint.Store(&fn)
}

func (m *Mesh) footprintChanged() {
	if fn := m.onFootprint.Load(); fn != nil {
		(*fn)()
	}
}

// Bare returns a mesh on m's vertex and face slices with no memos, for an
// owner that keeps m's geometry after m itself is gone (the decode cache's
// warm points). It carries the tree order of m's built AABB tree, or else
// the order m was itself handed by Bare, so that its own Tree rebuilds the
// same tree in O(n). Both meshes share the slices: neither may be mutated.
func (m *Mesh) Bare() *Mesh {
	b := &Mesh{Vertices: m.Vertices, Faces: m.Faces, treeOrder: m.treeOrder}
	if t := m.tree.Load(); t != nil {
		b.treeOrder = t.Order()
	}
	return b
}

// invalidateTriangles drops the memoized derived layouts and the tree-order
// hint after a mutation.
func (m *Mesh) invalidateTriangles() {
	m.treeOrder = nil
	m.soa.Store(nil)
	m.tree.Store(nil)
	m.groups.Store(nil)
	m.footprintChanged()
}

// Bounds returns the mesh's minimal bounding box (MBB).
func (m *Mesh) Bounds() geom.Box3 {
	b := geom.EmptyBox()
	for _, v := range m.Vertices {
		b = b.ExtendPoint(v)
	}
	return b
}

// Volume returns the signed volume enclosed by the mesh via the divergence
// theorem. For a closed mesh with consistent CCW (outward) orientation the
// result is positive.
func (m *Mesh) Volume() float64 {
	var vol float64
	for _, f := range m.Faces {
		a := m.Vertices[f[0]]
		b := m.Vertices[f[1]]
		c := m.Vertices[f[2]]
		vol += a.Dot(b.Cross(c))
	}
	return vol / 6
}

// Centroid returns the volume centroid of the closed mesh.
func (m *Mesh) Centroid() geom.Vec3 {
	var c geom.Vec3
	var vol float64
	for _, f := range m.Faces {
		a := m.Vertices[f[0]]
		b := m.Vertices[f[1]]
		d := m.Vertices[f[2]]
		v := a.Dot(b.Cross(d))
		vol += v
		c = c.Add(a.Add(b).Add(d).Mul(v / 4))
	}
	if vol == 0 {
		// Fall back to the vertex average for degenerate meshes.
		for _, v := range m.Vertices {
			c = c.Add(v)
		}
		if len(m.Vertices) > 0 {
			return c.Mul(1 / float64(len(m.Vertices)))
		}
		return geom.Vec3{}
	}
	return c.Mul(1 / vol)
}

// ContainsPoint reports whether p lies strictly inside the closed mesh.
func (m *Mesh) ContainsPoint(p geom.Vec3) bool {
	if !m.Bounds().ContainsPoint(p) {
		return false
	}
	return geom.PointInSoA(p, m.SoA())
}

// Translate moves every vertex by d.
func (m *Mesh) Translate(d geom.Vec3) {
	for i := range m.Vertices {
		m.Vertices[i] = m.Vertices[i].Add(d)
	}
	m.invalidateTriangles()
}

// Scale scales every vertex about the origin by s.
func (m *Mesh) Scale(s float64) {
	for i := range m.Vertices {
		m.Vertices[i] = m.Vertices[i].Mul(s)
	}
	m.invalidateTriangles()
}

// String implements fmt.Stringer.
func (m *Mesh) String() string {
	return fmt.Sprintf("mesh{%d vertices, %d faces}", len(m.Vertices), len(m.Faces))
}
