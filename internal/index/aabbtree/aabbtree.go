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
// both.
//
// Construction is a top-down median split on precomputed centroid keys:
// each level partitions an index range around the median of the node's
// longest axis by selection, not by sorting, so a build costs O(n log n)
// key comparisons with no per-comparison centroid arithmetic.
func BuildSoA(s *geom.TriSoA) *Tree {
	n := s.Len()
	t := &Tree{root: -1}
	if n == 0 {
		t.s = geom.NewTriSoA(0)
		return t
	}
	b := builder{
		s:     s,
		order: make([]int32, n),
		nodes: make([]node, 0, nodeCount(n)),
	}
	// Centroid ordering keys, one lane per axis. The vertex sum orders
	// exactly like the centroid (sum/3) and saves the division.
	keys := make([]float64, 3*n)
	b.key = [3][]float64{keys[:n:n], keys[n : 2*n : 2*n], keys[2*n:]}
	for i := 0; i < n; i++ {
		b.order[i] = int32(i)
		b.key[0][i] = s.AX[i] + s.BX[i] + s.CX[i]
		b.key[1][i] = s.AY[i] + s.BY[i] + s.CY[i]
		b.key[2][i] = s.AZ[i] + s.BZ[i] + s.CZ[i]
	}
	t.root = b.build(0, int32(n))
	t.nodes = b.nodes
	t.s = s.Gather(b.order)
	return t
}

// nodeCount returns the exact number of nodes build creates for n > 0
// triangles, so the node array is allocated once at its final size.
func nodeCount(n int) int {
	if n <= maxLeafSize {
		return 1
	}
	return 1 + nodeCount(n/2) + nodeCount(n-n/2)
}

// builder is the construction-time state: the input lanes, the permutation
// being refined into tree order, and the centroid keys it is refined by.
type builder struct {
	s     *geom.TriSoA
	order []int32
	key   [3][]float64
	nodes []node
}

// build recursively partitions order[lo:hi] by the median centroid along
// the longest axis of the range's box.
func (b *builder) build(lo, hi int32) int32 {
	s := b.s
	box := geom.EmptyBox()
	for _, i := range b.order[lo:hi] {
		box.Min.X = math.Min(box.Min.X, s.MinX[i])
		box.Min.Y = math.Min(box.Min.Y, s.MinY[i])
		box.Min.Z = math.Min(box.Min.Z, s.MinZ[i])
		box.Max.X = math.Max(box.Max.X, s.MaxX[i])
		box.Max.Y = math.Max(box.Max.Y, s.MaxY[i])
		box.Max.Z = math.Max(box.Max.Z, s.MaxZ[i])
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

// NumTriangles returns the number of indexed triangles.
func (t *Tree) NumTriangles() int { return t.s.Len() }

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

// IntersectsTriangle reports whether any indexed triangle intersects q.
func (t *Tree) IntersectsTriangle(q geom.Triangle) bool {
	if t.root < 0 {
		return false
	}
	qb := q.Bounds()
	return t.intersectsTriangleRec(t.root, q, qb)
}

func (t *Tree) intersectsTriangleRec(ni int32, q geom.Triangle, qb geom.Box3) bool {
	n := &t.nodes[ni]
	if !n.box.Intersects(qb) {
		return false
	}
	if n.left < 0 {
		for i := int(n.start); i < int(n.end); i++ {
			if t.s.Box(i).Intersects(qb) && geom.TriTriIntersect(t.s.At(i), q) {
				return true
			}
		}
		return false
	}
	return t.intersectsTriangleRec(n.left, q, qb) || t.intersectsTriangleRec(n.right, q, qb)
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

// DistToTriangle returns the minimum distance from q to the indexed set,
// pruned with an optional upper bound: pass math.Inf(1) when unknown.
func (t *Tree) DistToTriangle(q geom.Triangle, upper float64) float64 {
	if t.root < 0 {
		return math.Inf(1)
	}
	best := upper * upper
	if math.IsInf(upper, 1) {
		best = math.Inf(1)
	}
	best = t.distTriRec(t.root, q, q.Bounds(), best)
	return math.Sqrt(best)
}

func (t *Tree) distTriRec(ni int32, q geom.Triangle, qb geom.Box3, best float64) float64 {
	n := &t.nodes[ni]
	if d2 := n.box.MinDist2(qb); d2 >= best {
		return best
	}
	if n.left < 0 {
		for i := int(n.start); i < int(n.end); i++ {
			if t.s.Box(i).MinDist2(qb) >= best {
				continue
			}
			if d2 := geom.TriTriDist2(t.s.At(i), q); d2 < best {
				best = d2
			}
		}
		return best
	}
	// Visit the closer child first for tighter pruning.
	l, r := n.left, n.right
	if t.nodes[l].box.MinDist2(qb) > t.nodes[r].box.MinDist2(qb) {
		l, r = r, l
	}
	best = t.distTriRec(l, q, qb, best)
	best = t.distTriRec(r, q, qb, best)
	return best
}

// DistToTree returns the minimum distance between the two triangle sets via
// branch-and-bound simultaneous descent. It is zero when they intersect.
func (t *Tree) DistToTree(o *Tree) float64 {
	return t.DistToTreeBounded(o, math.Inf(1))
}

// DistToTreeBounded is DistToTree with the descent seeded by an upper bound:
// subtree pairs whose box distance is ≥ upper are pruned without ever
// touching their triangles. When the true distance exceeds upper the
// returned value is ≥ upper but otherwise meaningless — callers must treat
// it as "greater than upper" only. Pass math.Inf(1) for an exact distance.
func (t *Tree) DistToTreeBounded(o *Tree, upper float64) float64 {
	if t.root < 0 || o.root < 0 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	if !math.IsInf(upper, 1) {
		best = upper * upper
	}
	best = distDual(t, t.root, o, o.root, best)
	return math.Sqrt(best)
}

func distDual(a *Tree, ai int32, b *Tree, bi int32, best float64) float64 {
	an, bn := &a.nodes[ai], &b.nodes[bi]
	if d2 := an.box.MinDist2(bn.box); d2 >= best {
		return best
	}
	aLeaf, bLeaf := an.left < 0, bn.left < 0
	switch {
	case aLeaf && bLeaf:
		return geom.MinDist2Rect(a.s, int(an.start), int(an.end), b.s, int(bn.start), int(bn.end), best)
	case bLeaf || (!aLeaf && an.box.Volume() >= bn.box.Volume()):
		// Descend a; nearer child first.
		l, r := an.left, an.right
		if a.nodes[l].box.MinDist2(bn.box) > a.nodes[r].box.MinDist2(bn.box) {
			l, r = r, l
		}
		best = distDual(a, l, b, bi, best)
		best = distDual(a, r, b, bi, best)
		return best
	default:
		l, r := bn.left, bn.right
		if b.nodes[l].box.MinDist2(an.box) > b.nodes[r].box.MinDist2(an.box) {
			l, r = r, l
		}
		best = distDual(a, ai, b, l, best)
		best = distDual(a, ai, b, r, best)
		return best
	}
}

// ContainsPoint reports whether p is inside the closed surface indexed by
// the tree, by counting ray crossings. Degenerate hits (edges, vertices,
// parallel faces) trigger a re-cast along a different direction, exactly as
// geom.PointInTriangles does, but each cast costs O(log N) instead of O(N).
func (t *Tree) ContainsPoint(p geom.Vec3) bool {
	if t.root < 0 || !t.Bounds().ContainsPoint(p) {
		return false
	}
	parity := false
	for _, dir := range geom.RayDirections() {
		r := geom.Ray{Origin: p, Dir: dir}
		crossings, ok := t.countCrossings(t.root, r)
		parity = crossings%2 == 1
		if ok {
			return parity
		}
	}
	return parity
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

// Triangle returns the i-th triangle in tree order.
func (t *Tree) Triangle(i int) geom.Triangle { return t.s.At(i) }
