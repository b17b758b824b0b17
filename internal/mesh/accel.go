package mesh

import (
	"repro/internal/geom"
	"repro/internal/index/aabbtree"
)

// Tree returns the AABB tree over the mesh's faces (the intra-geometry index
// of the paper's §5.1), building it at most once per mesh state; built
// reports whether this call did. The tree is an artefact of the mesh: it is
// shared by every query that reaches this mesh and is dropped with it.
//
// The build is aabbtree.BuildFaces with the tree-order hint Bare left on
// the mesh, if any: a hint that fits the faces rebuilds the earlier tree in
// O(n), and without one the order is found by median selection.
//
// Publishing the tree also makes its tree-ordered lanes the mesh's SoA
// memo, so the triangles stay resident once — the tree adds only its node
// array and its tree order. The tree packs those lanes straight from
// Faces, once, whether or not a face-order memo was published before it.
// Readers still holding the previous packing keep a valid, immutable set;
// it is freed when they finish. Concurrent first calls may race to build;
// one tree is published and the losers' duplicates are discarded.
func (m *Mesh) Tree() (t *aabbtree.Tree, built bool) {
	if t := m.tree.Load(); t != nil {
		return t, false
	}
	t = aabbtree.BuildFaces(m.Vertices, m.Faces, m.treeOrder)
	if !m.tree.CompareAndSwap(nil, t) {
		return m.tree.Load(), false
	}
	m.soa.Store(t.SoA())
	// An unpartitioned mesh's single group views the SoA memo: move it onto
	// the new lanes too, or it would keep the replaced packing resident.
	if g := m.groups.Load(); g != nil && len(g.List) == 1 {
		m.groups.CompareAndSwap(g, singleGroup(t.SoA(), g.List[0].Box))
	}
	m.footprintChanged()
	return t, true
}

// Group is one sub-object of a partitioned mesh: the faces assigned to one
// skeleton point, as a contiguous run of group-ordered SoA lanes, with their
// bounding box.
type Group struct {
	Tris geom.TriSoA
	Box  geom.Box3
}

// Groups is a mesh's sub-object partition (§5.1 skeleton partitioning): one
// SoA packing laid out group by group, and a view of it per group.
type Groups struct {
	lanes *geom.TriSoA
	List  []Group
}

// groupBytes is the in-memory size of one Group (21 slice headers + a box).
const groupBytes = 21*24 + 48

// singleGroup is the partition of an unpartitioned mesh: one group viewing
// the mesh's own SoA lanes, copying nothing.
func singleGroup(soa *geom.TriSoA, box geom.Box3) *Groups {
	return &Groups{lanes: soa, List: []Group{{Tris: *soa, Box: box}}}
}

// bytes returns the memory the partition holds beyond the mesh's own SoA
// memo: a single-group partition views that memo's lanes and adds only its
// header (unless it lost the race against a tree build re-laying the memo,
// and still views the packing the tree replaced); the views of a real
// partition each add the block lanes Slice built for them.
func (g *Groups) bytes(soa *geom.TriSoA) int64 {
	b := int64(len(g.List)) * groupBytes
	if g.lanes != soa {
		b += g.lanes.Bytes()
	}
	if len(g.List) > 1 {
		for i := range g.List {
			b += g.List[i].Tris.BlockBytes()
		}
	}
	return b
}

// Groups returns the mesh's sub-object partition, building it at most once
// per mesh state; built reports whether this call did. assign supplies the
// partition on the first call — the face indices of each group — and must
// depend on nothing but the mesh and the identity of the object it was
// decoded from, because every later caller shares the result. Fewer than
// two groups mean an unpartitioned object: a single group over the mesh's
// own SoA lanes, copying nothing. Lifetime and first-build races are as for
// Tree.
func (m *Mesh) Groups(assign func() [][]int32) (g *Groups, built bool) {
	if g := m.groups.Load(); g != nil {
		return g, false
	}
	if parts := assign(); len(parts) < 2 {
		soa := m.SoA()
		g = singleGroup(soa, soa.Bounds())
	} else {
		// Pack from the faces, not from the SoA memo: assign speaks face
		// indices, and the memo's order is unspecified.
		order := make([]int32, 0, len(m.Faces))
		for _, p := range parts {
			order = append(order, p...)
		}
		lanes := geom.NewTriSoA(len(order))
		geom.PackFaces(lanes, m.Vertices, m.Faces, order)
		g = &Groups{lanes: lanes, List: make([]Group, len(parts))}
		lo := 0
		for i, p := range parts {
			tris := g.lanes.Slice(lo, lo+len(p))
			g.List[i] = Group{Tris: tris, Box: tris.Bounds()}
			lo += len(p)
		}
	}
	if !m.groups.CompareAndSwap(nil, g) {
		return m.groups.Load(), false
	}
	m.footprintChanged()
	return g, true
}
