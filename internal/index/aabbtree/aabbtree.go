// Package aabbtree implements a hierarchical Axis-Aligned Bounding Box tree
// over triangle primitives, the intra-geometry index of the paper's §5.1.
// Building the tree over one decoded polyhedron's faces reduces the cost of
// evaluating two geometries from O(N·N') to O(N·log N') for intersection
// detection and distance calculation.
//
// BuildFaces builds from an indexed mesh, BuildSoA from packed lanes; Tree
// describes the one construction both run.
package aabbtree

import (
	"math"

	"repro/internal/geom"
)

// maxLeafSize is the number of triangles kept per leaf.
const maxLeafSize = 4

// node is a binary tree node over a contiguous range of the tree-ordered
// lanes. Nodes are stored in preorder.
type node struct {
	box         geom.Box3
	left, right int32 // children indices, -1 for leaves
	start, end  int32 // triangle range [start, end) for leaves
}

// nodeBytes is the in-memory size of one node.
const nodeBytes = 64

// Tree is an immutable AABB tree over a set of triangles: a node array over
// SoA lanes laid out in tree order, so every leaf is a contiguous run of
// the lanes and the triangles and their boxes are stored exactly once. It
// is safe for concurrent queries after construction.
//
// A tree is a permutation plus geometry. The node topology depends on the
// triangle count alone (ranges halve at (lo+hi)/2 down to leaves of at most
// maxLeafSize, in preorder) and every box is the exact union of what lies
// below it, so the tree order — which input triangle sits at each lane —
// fixes the whole tree. Every build is the same three steps: find that
// order (or take it from an earlier build), pack the triangles into lanes
// in it, and fill the nodes bottom-up over the lanes.
type Tree struct {
	s     *geom.TriSoA
	nodes []node
	order []int32
	root  int32
}

// BuildFaces constructs the tree over an indexed mesh's faces. A valid
// permutation of [0, len(faces)) in order is used as the tree order: the
// Order of an earlier build over the same vertices and faces rebuilds that
// tree, equal in every node and lane, in O(n) with no selection, and any
// other permutation still yields a valid tree with exact boxes, only a
// looser one. Otherwise (nil, or anything that is not such a permutation)
// the order is found by median selection. The faces are then packed into
// the lanes in tree order, once, and the nodes filled over them. The tree
// keeps a supplied order as its Order: the caller must not modify it
// afterwards.
//
// Median selection is a top-down split on precomputed centroid keys: each
// level partitions an index range around the median of the range's longest
// axis by selection, not by sorting, so it costs O(n log n) key comparisons
// with no per-comparison centroid arithmetic.
func BuildFaces[F ~[3]int32](verts []geom.Vec3, faces []F, order []int32) *Tree {
	n := len(faces)
	s := geom.NewTriSoA(n)
	if n == 0 {
		return &Tree{s: s, root: -1}
	}
	if !isPermutation(order, n) {
		// Scratch in s's own lanes: the box lanes hold face-order boxes and
		// the A lanes the keys until the order is found, then PackFaces
		// overwrites every lane in tree order.
		key := [3][]float64{s.AX, s.AY, s.AZ}
		for i, f := range faces {
			a, b, c := verts[f[0]], verts[f[1]], verts[f[2]]
			key[0][i], key[1][i], key[2][i] = a.X+b.X+c.X, a.Y+b.Y+c.Y, a.Z+b.Z+c.Z
			s.MinX[i], s.MaxX[i] = geom.MinMax3(a.X, b.X, c.X)
			s.MinY[i], s.MaxY[i] = geom.MinMax3(a.Y, b.Y, c.Y)
			s.MinZ[i], s.MaxZ[i] = geom.MinMax3(a.Z, b.Z, c.Z)
		}
		order = treeOrder(s, key)
	}
	geom.PackFaces(s, verts, faces, order)
	return newTree(s, order)
}

// BuildSoA is BuildFaces for triangles that are already packed: the same
// order selection and the same nodes, over lanes gathered from s into tree
// order. The input is left untouched; the tree's lanes are available
// through SoA.
func BuildSoA(s *geom.TriSoA) *Tree {
	n := s.Len()
	if n == 0 {
		return &Tree{s: geom.NewTriSoA(0), root: -1}
	}
	// Centroid ordering keys, one lane per axis. The vertex sum orders
	// exactly like the centroid (sum/3) and saves the division.
	keys := make([]float64, 3*n)
	key := [3][]float64{keys[:n:n], keys[n : 2*n : 2*n], keys[2*n:]}
	for i := 0; i < n; i++ {
		key[0][i] = s.AX[i] + s.BX[i] + s.CX[i]
		key[1][i] = s.AY[i] + s.BY[i] + s.CY[i]
		key[2][i] = s.AZ[i] + s.BZ[i] + s.CZ[i]
	}
	order := treeOrder(s, key)
	return newTree(s.Gather(order), order)
}

// isPermutation reports whether order lists every index of [0, n) once.
func isPermutation(order []int32, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]uint64, (n+63)/64)
	for _, o := range order {
		if o < 0 || int(o) >= n || seen[o>>6]&(1<<(o&63)) != 0 {
			return false
		}
		seen[o>>6] |= 1 << (o & 63)
	}
	return true
}

// newTree returns the tree over n > 0 triangles laid out in s's lanes in
// the given tree order, with its nodeCount(n) nodes filled.
func newTree(s *geom.TriSoA, order []int32) *Tree {
	t := &Tree{s: s, nodes: make([]node, 0, nodeCount(len(order))), order: order}
	t.root = t.fill(0, int32(len(order)))
	return t
}

// fill appends the subtree over lanes [lo, hi) in preorder, splitting at
// the midpoint, and returns its root index. It is where every node of every
// tree is made. A node's box is set once its subtree is filled: the union
// of its lanes' boxes for a leaf, of its children's boxes otherwise. Both
// are exact unions, so every bound is the smallest box around its lanes.
func (t *Tree) fill(lo, hi int32) int32 {
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{left: -1, right: -1, start: lo, end: hi})
	if hi-lo <= maxLeafSize {
		s, box := t.s, geom.EmptyBox()
		for i := lo; i < hi; i++ {
			box.Min.X, box.Max.X = geom.GrowInterval(box.Min.X, box.Max.X, s.MinX[i], s.MaxX[i])
			box.Min.Y, box.Max.Y = geom.GrowInterval(box.Min.Y, box.Max.Y, s.MinY[i], s.MaxY[i])
			box.Min.Z, box.Max.Z = geom.GrowInterval(box.Min.Z, box.Max.Z, s.MinZ[i], s.MaxZ[i])
		}
		t.nodes[idx].box = box
		return idx
	}
	mid := (lo + hi) / 2
	left := t.fill(lo, mid)
	right := t.fill(mid, hi)
	box, r := t.nodes[left].box, t.nodes[right].box
	box.Min.X, box.Max.X = geom.GrowInterval(box.Min.X, box.Max.X, r.Min.X, r.Max.X)
	box.Min.Y, box.Max.Y = geom.GrowInterval(box.Min.Y, box.Max.Y, r.Min.Y, r.Max.Y)
	box.Min.Z, box.Max.Z = geom.GrowInterval(box.Min.Z, box.Max.Z, r.Min.Z, r.Max.Z)
	t.nodes[idx].box = box
	t.nodes[idx].left, t.nodes[idx].right = left, right
	return idx
}

// nodeCount returns the exact number of nodes fill creates for n > 0
// triangles, so the node array is allocated once at its final size.
func nodeCount(n int) int {
	if n <= maxLeafSize {
		return 1
	}
	return 1 + nodeCount(n/2) + nodeCount(n-n/2)
}

// treeOrder returns the tree order of the n > 0 triangles whose boxes are
// in s's box lanes, found by median selection on the centroid keys.
func treeOrder(s *geom.TriSoA, key [3][]float64) []int32 {
	b := builder{s: s, key: key, order: make([]int32, s.Len())}
	for i := range b.order {
		b.order[i] = int32(i)
	}
	b.build(0, int32(len(b.order)))
	return b.order
}

// builder is the state of a median-selection descent: the set whose box
// lanes it reads, the permutation being refined into tree order, and the
// centroid keys it is refined by.
type builder struct {
	s     *geom.TriSoA
	order []int32
	key   [3][]float64
}

// build refines order[lo:hi] over the ranges fill makes nodes of: a range
// larger than a leaf is partitioned around the median centroid along the
// longest axis of its box, and both halves are refined in turn.
func (b *builder) build(lo, hi int32) {
	if hi-lo <= maxLeafSize {
		return
	}
	minX, minY, minZ := b.s.MinX, b.s.MinY, b.s.MinZ
	maxX, maxY, maxZ := b.s.MaxX, b.s.MaxY, b.s.MaxZ
	box := geom.EmptyBox()
	for _, i := range b.order[lo:hi] {
		box.Min.X, box.Max.X = geom.GrowInterval(box.Min.X, box.Max.X, minX[i], maxX[i])
		box.Min.Y, box.Max.Y = geom.GrowInterval(box.Min.Y, box.Max.Y, minY[i], maxY[i])
		box.Min.Z, box.Max.Z = geom.GrowInterval(box.Min.Z, box.Max.Z, minZ[i], maxZ[i])
	}
	mid := (lo + hi) / 2
	selectNth(b.order[lo:hi], b.key[box.LongestAxis()], int(mid-lo))
	b.build(lo, mid)
	b.build(mid, hi)
}

// selectNth reorders idx so that idx[k] holds the element of rank k by key
// and no element before it has a larger key nor any after it a smaller one
// (quickselect with a median-of-three pivot; equal keys split evenly, so
// all-equal input stays linear).
func selectNth(idx []int32, key []float64, k int) {
	lo, hi := 0, len(idx)-1
	for hi > lo {
		m := lo + (hi-lo)/2
		if key[idx[m]] < key[idx[lo]] {
			idx[m], idx[lo] = idx[lo], idx[m]
		}
		if key[idx[hi]] < key[idx[lo]] {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if key[idx[hi]] < key[idx[m]] {
			idx[hi], idx[m] = idx[m], idx[hi]
		}
		pivot := key[idx[m]]
		i, j := lo, hi
		for i <= j {
			for key[idx[i]] < pivot {
				i++
			}
			for key[idx[j]] > pivot {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		// idx[lo..j] ≤ pivot ≤ idx[i..hi], with j < i.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// SoA returns the indexed triangles as lanes in tree order. The set is
// shared with the tree and read-only.
func (t *Tree) SoA() *geom.TriSoA { return t.s }

// Order returns the tree order: Order()[i] is the index, in the input the
// tree was built from, of the triangle at tree-ordered lane i. It is nil
// for an empty tree, shared with the tree and read-only. BuildFaces
// rebuilds the tree from it in O(n).
func (t *Tree) Order() []int32 { return t.order }

// NodeBytes returns the memory held by the node array and the tree order
// (4 B per triangle) — the tree's whole footprint beyond the lanes SoA
// returns.
func (t *Tree) NodeBytes() int64 { return int64(cap(t.nodes))*nodeBytes + int64(cap(t.order))*4 }

// Bounds returns the bounding box of all indexed triangles.
func (t *Tree) Bounds() geom.Box3 {
	if t.root < 0 {
		return geom.EmptyBox()
	}
	return t.nodes[t.root].box
}

// IntersectsTree reports whether any triangle of t intersects any triangle
// of o, using simultaneous descent of both trees.
func (t *Tree) IntersectsTree(o *Tree) bool {
	if t.root < 0 || o.root < 0 {
		return false
	}
	return intersectsDual(t, t.root, o, o.root)
}

func intersectsDual(a *Tree, ai int32, b *Tree, bi int32) bool {
	an, bn := &a.nodes[ai], &b.nodes[bi]
	if !an.box.Intersects(bn.box) {
		return false
	}
	aLeaf, bLeaf := an.left < 0, bn.left < 0
	switch {
	case aLeaf && bLeaf:
		return geom.IntersectsRect(a.s, int(an.start), int(an.end), b.s, int(bn.start), int(bn.end))
	case bLeaf || (!aLeaf && an.box.Volume() >= bn.box.Volume()):
		return intersectsDual(a, an.left, b, bi) || intersectsDual(a, an.right, b, bi)
	default:
		return intersectsDual(a, ai, b, bn.left) || intersectsDual(a, ai, b, bn.right)
	}
}

// DistToTreeBounded returns the minimum distance between the two triangle
// sets (zero when they intersect) if it is ≤ upper, and +Inf otherwise;
// pass math.Inf(1) for an exact distance. It is MinDist2Bounded for callers
// that hold a plain distance: the bound is squared here and nudged one
// float up, so that a distance equal to upper is still below it.
func (t *Tree) DistToTreeBounded(o *Tree, upper float64) float64 {
	return math.Sqrt(t.MinDist2Bounded(o, math.Nextafter(upper*upper, math.Inf(1)), 0))
}

// MinDist2Bounded returns the squared minimum distance between the two
// triangle sets if it is below upper2, and +Inf otherwise (also for an
// empty set). The bound seeds the branch-and-bound descent of both trees:
// subtree pairs whose boxes are at or beyond it are pruned without ever
// touching their triangles, and the leaves fold through geom.MinDist2Rect
// under the best distance found so far. The descent unwinds as soon as
// that best is ≤ stop2 (below upper2; 0 for an exact minimum), with the
// contract of geom.MinDist2BatchRange.
func (t *Tree) MinDist2Bounded(o *Tree, upper2, stop2 float64) float64 {
	if t.root < 0 || o.root < 0 {
		return math.Inf(1)
	}
	d2 := t.nodes[t.root].box.MinDist2(o.nodes[o.root].box)
	if best := distDual(t, t.root, o, o.root, d2, upper2, stop2); best < upper2 {
		return best
	}
	return math.Inf(1)
}

// distDual folds the distances between the subtrees under a.nodes[ai] and
// b.nodes[bi], whose boxes are boxD2 apart, into best. A caller computes
// the box distance of a node pair once — to order the two children by it —
// and hands it down for the pruning test.
func distDual(a *Tree, ai int32, b *Tree, bi int32, boxD2, best, stop2 float64) float64 {
	if boxD2 >= best || best <= stop2 {
		return best
	}
	an, bn := &a.nodes[ai], &b.nodes[bi]
	aLeaf, bLeaf := an.left < 0, bn.left < 0
	if aLeaf && bLeaf {
		return geom.MinDist2Rect(a.s, int(an.start), int(an.end), b.s, int(bn.start), int(bn.end), best, stop2)
	}
	// Split the larger node; nearer child first, for tighter pruning.
	if bLeaf || (!aLeaf && an.box.Volume() >= bn.box.Volume()) {
		l, r := an.left, an.right
		ld, rd := a.nodes[l].box.MinDist2(bn.box), a.nodes[r].box.MinDist2(bn.box)
		if ld > rd {
			l, r, ld, rd = r, l, rd, ld
		}
		best = distDual(a, l, b, bi, ld, best, stop2)
		return distDual(a, r, b, bi, rd, best, stop2)
	}
	l, r := bn.left, bn.right
	ld, rd := an.box.MinDist2(b.nodes[l].box), an.box.MinDist2(b.nodes[r].box)
	if ld > rd {
		l, r, ld, rd = r, l, rd, ld
	}
	best = distDual(a, ai, b, l, ld, best, stop2)
	return distDual(a, ai, b, r, rd, best, stop2)
}

// ContainsPoint reports whether p is inside the closed surface indexed by
// the tree, by counting ray crossings. Degenerate hits (edges, vertices,
// parallel faces) trigger a re-cast along a different direction, exactly as
// geom.PointInSoA does, but each cast costs O(log N) instead of O(N). The
// first direction is +X and gets a descent of its own (crossingsX); only
// the re-casts pay for the generic slab test.
func (t *Tree) ContainsPoint(p geom.Vec3) bool {
	if t.root < 0 || !t.Bounds().ContainsPoint(p) {
		return false
	}
	dirs := geom.RayDirections()
	crossings, ok := t.crossingsX(p) // dirs[0]
	for i := 1; !ok && i < len(dirs); i++ {
		crossings, ok = t.countCrossings(t.root, geom.Ray{Origin: p, Dir: dirs[i]})
	}
	return crossings%2 == 1
}

// crossingsX is countCrossings for the ray from o along +X. It visits
// exactly the nodes Ray.IntersectBox accepts for Dir = {1,0,0} — the two
// zero components make the y and z slabs containment tests, and the x slab
// reduces to "the box does not end before o" — iteratively, and counts a
// leaf straight off the tree-ordered lanes.
func (t *Tree) crossingsX(o geom.Vec3) (int, bool) {
	// The median split halves every range, so the depth is at most
	// log2(2^31) and the stack never holds more than depth+1 nodes.
	var stack [48]int32
	stack[0] = t.root
	total := 0
	for top := 1; top > 0; {
		top--
		n := &t.nodes[stack[top]]
		if n.box.Max.X < o.X || o.Y < n.box.Min.Y || o.Y > n.box.Max.Y || o.Z < n.box.Min.Z || o.Z > n.box.Max.Z {
			continue
		}
		if n.left >= 0 {
			stack[top], stack[top+1] = n.right, n.left
			top += 2
			continue
		}
		c, ok := geom.CrossingsX(o, t.s, int(n.start), int(n.end))
		if !ok {
			return 0, false
		}
		total += c
	}
	return total, true
}

func (t *Tree) countCrossings(ni int32, r geom.Ray) (int, bool) {
	n := &t.nodes[ni]
	if !r.IntersectBox(n.box) {
		return 0, true
	}
	if n.left < 0 {
		total := 0
		for i := int(n.start); i < int(n.end); i++ {
			c, ok := geom.RayCrossesTriangle(r, t.s.At(i))
			if !ok {
				return 0, false
			}
			total += c
		}
		return total, true
	}
	lc, ok := t.countCrossings(n.left, r)
	if !ok {
		return 0, false
	}
	rc, ok := t.countCrossings(n.right, r)
	if !ok {
		return 0, false
	}
	return lc + rc, true
}
