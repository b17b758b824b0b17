// Package aabbtree implements a hierarchical Axis-Aligned Bounding Box tree
// over triangle primitives, the intra-geometry index of the paper's §5.1.
// Building the tree over one decoded polyhedron's faces reduces the cost of
// evaluating two geometries from O(N·N') to O(N·log N') for intersection
// detection and distance calculation.
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
type Tree struct {
	s     *geom.TriSoA
	nodes []node
	root  int32
}

// Build constructs a tree over the given triangles. The input slice is not
// retained. Build returns an empty tree for no triangles.
func Build(tris []geom.Triangle) *Tree {
	return BuildSoA(geom.SoAFromTriangles(tris))
}

// BuildSoA constructs a tree from an SoA triangle set. The input is left
// untouched; the tree retains a copy of its lanes gathered into tree order,
// available through SoA so that an owner (mesh.Mesh does this) can adopt
// the tree-ordered lanes as its one resident packing instead of keeping
// both. An owner of an indexed mesh (mesh.Mesh) builds with BuildFaces
// instead, which packs the tree-ordered lanes straight from the faces.
//
// Construction is a top-down median split on precomputed centroid keys:
// each level partitions an index range around the median of the node's
// longest axis by selection, not by sorting, so a build costs O(n log n)
// key comparisons with no per-comparison centroid arithmetic.
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
	t, order := build([6][]float64{s.MinX, s.MinY, s.MinZ, s.MaxX, s.MaxY, s.MaxZ}, key)
	t.s = s.Gather(order)
	return t
}

// BuildFaces constructs the tree BuildSoA builds over the faces' packing
// (the same nodes and the same tree-ordered lanes) from an indexed mesh,
// without packing the faces in face order first. The keys and boxes it
// selects on are computed from the vertices into the lanes of the set
// being built, which then receives the triangles in tree order: one
// packing in all.
func BuildFaces[F ~[3]int32](verts []geom.Vec3, faces []F) *Tree {
	n := len(faces)
	s := geom.NewTriSoA(n)
	if n == 0 {
		return &Tree{s: s, root: -1}
	}
	// Scratch in s's own lanes: the box lanes hold face-order boxes and the
	// A lanes the keys until the build is done, then every lane is
	// overwritten in tree order.
	key := [3][]float64{s.AX, s.AY, s.AZ}
	for i, f := range faces {
		a, b, c := verts[f[0]], verts[f[1]], verts[f[2]]
		key[0][i], key[1][i], key[2][i] = a.X+b.X+c.X, a.Y+b.Y+c.Y, a.Z+b.Z+c.Z
		s.MinX[i], s.MaxX[i] = geom.MinMax3(a.X, b.X, c.X)
		s.MinY[i], s.MaxY[i] = geom.MinMax3(a.Y, b.Y, c.Y)
		s.MinZ[i], s.MaxZ[i] = geom.MinMax3(a.Z, b.Z, c.Z)
	}
	t, order := build([6][]float64{s.MinX, s.MinY, s.MinZ, s.MaxX, s.MaxY, s.MaxZ}, key)
	for i, o := range order {
		f := faces[o]
		s.Set(i, verts[f[0]], verts[f[1]], verts[f[2]])
	}
	t.s = s
	return t
}

// build constructs the node array over n > 0 triangles from their boxes
// (MinX, MinY, MinZ, MaxX, MaxY, MaxZ lanes) and centroid keys, and returns
// it with the permutation of the triangles into tree order. The tree's
// lanes are the caller's to lay out in that order.
func build(box [6][]float64, key [3][]float64) (*Tree, []int32) {
	n := len(box[0])
	b := builder{
		box:   box,
		key:   key,
		order: make([]int32, n),
		nodes: make([]node, 0, nodeCount(n)),
	}
	for i := range b.order {
		b.order[i] = int32(i)
	}
	t := &Tree{root: b.build(0, int32(n))}
	t.nodes = b.nodes
	return t, b.order
}

// nodeCount returns the exact number of nodes build creates for n > 0
// triangles, so the node array is allocated once at its final size.
func nodeCount(n int) int {
	if n <= maxLeafSize {
		return 1
	}
	return 1 + nodeCount(n/2) + nodeCount(n-n/2)
}

// builder is the construction-time state: the triangles' box lanes, the
// permutation being refined into tree order, and the centroid keys it is
// refined by.
type builder struct {
	box   [6][]float64
	order []int32
	key   [3][]float64
	nodes []node
}

// build recursively partitions order[lo:hi] by the median centroid along
// the longest axis of the range's box.
func (b *builder) build(lo, hi int32) int32 {
	minX, minY, minZ := b.box[0], b.box[1], b.box[2]
	maxX, maxY, maxZ := b.box[3], b.box[4], b.box[5]
	box := geom.EmptyBox()
	for _, i := range b.order[lo:hi] {
		box.Min.X, box.Max.X = geom.GrowInterval(box.Min.X, box.Max.X, minX[i], maxX[i])
		box.Min.Y, box.Max.Y = geom.GrowInterval(box.Min.Y, box.Max.Y, minY[i], maxY[i])
		box.Min.Z, box.Max.Z = geom.GrowInterval(box.Min.Z, box.Max.Z, minZ[i], maxZ[i])
	}
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{box: box, left: -1, right: -1, start: lo, end: hi})
	if hi-lo <= maxLeafSize {
		return idx
	}
	mid := (lo + hi) / 2
	selectNth(b.order[lo:hi], b.key[box.LongestAxis()], int(mid-lo))
	left := b.build(lo, mid)
	right := b.build(mid, hi)
	b.nodes[idx].left = left
	b.nodes[idx].right = right
	return idx
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

// NodeBytes returns the memory held by the node array — the tree's whole
// footprint beyond the lanes SoA returns.
func (t *Tree) NodeBytes() int64 { return int64(cap(t.nodes)) * nodeBytes }

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
