// Package rtree implements a 3D R-tree over object minimal bounding boxes —
// the global spatial index of the paper's filtering step. It supports STR
// bulk loading of static datasets, box-intersection search, the
// within-distance traversal of §4.2 (MINDIST/MAXDIST pruning with early
// whole-subtree acceptance), and the nearest-neighbor candidate generation
// of §4.3 (MINMAXDIST-style pruning that returns every object whose distance
// range overlaps the best candidate's).
package rtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// MaxEntries is the node fan-out M.
const MaxEntries = 16

// Entry is one indexed object: its MBB and an opaque identifier.
type Entry struct {
	Box geom.Box3
	ID  int64
}

type node struct {
	box      geom.Box3
	leaf     bool
	entries  []Entry // valid when leaf
	children []*node // valid when !leaf
}

func (n *node) recomputeBox() {
	b := geom.EmptyBox()
	if n.leaf {
		for _, e := range n.entries {
			b = b.Union(e.Box)
		}
	} else {
		for _, c := range n.children {
			b = b.Union(c.box)
		}
	}
	n.box = b
}

// Tree is a 3D R-tree built by BulkLoad. The zero value is an empty usable
// tree. It is immutable and safe for concurrent readers.
type Tree struct {
	root *node
}

// Bounds returns the box covering all entries (empty box when empty).
func (t *Tree) Bounds() geom.Box3 {
	if t.root == nil {
		return geom.EmptyBox()
	}
	return t.root.box
}

// BulkLoad builds a tree from the given entries using Sort-Tile-Recursive
// packing, which yields well-shaped nodes for static datasets such as the
// paper's per-tissue object sets.
func BulkLoad(entries []Entry) *Tree {
	t := &Tree{}
	if len(entries) == 0 {
		t.root = &node{leaf: true}
		return t
	}
	es := append([]Entry(nil), entries...)
	leaves := strPackEntries(es)
	level := leaves
	for len(level) > 1 {
		level = strPackNodes(level)
	}
	t.root = level[0]
	return t
}

// strPackEntries tiles entries into leaf nodes of MaxEntries each.
func strPackEntries(es []Entry) []*node {
	n := len(es)
	leafCount := (n + MaxEntries - 1) / MaxEntries
	// Number of vertical slabs along X, then tiles along Y, runs along Z.
	sx := int(math.Ceil(math.Cbrt(float64(leafCount))))
	sy := sx

	sort.Slice(es, func(i, j int) bool { return es[i].Box.Center().X < es[j].Box.Center().X })
	perSlabX := (n + sx - 1) / sx
	var leaves []*node
	for x := 0; x < n; x += perSlabX {
		xe := es[x:minInt(x+perSlabX, n)]
		sort.Slice(xe, func(i, j int) bool { return xe[i].Box.Center().Y < xe[j].Box.Center().Y })
		perSlabY := (len(xe) + sy - 1) / sy
		for y := 0; y < len(xe); y += perSlabY {
			ye := xe[y:minInt(y+perSlabY, len(xe))]
			sort.Slice(ye, func(i, j int) bool { return ye[i].Box.Center().Z < ye[j].Box.Center().Z })
			for z := 0; z < len(ye); z += MaxEntries {
				ze := ye[z:minInt(z+MaxEntries, len(ye))]
				leaf := &node{leaf: true, entries: append([]Entry(nil), ze...)}
				leaf.recomputeBox()
				leaves = append(leaves, leaf)
			}
		}
	}
	return leaves
}

// strPackNodes tiles a level of nodes into parents, reusing the same STR
// scheme on node centers.
func strPackNodes(nodes []*node) []*node {
	n := len(nodes)
	parentCount := (n + MaxEntries - 1) / MaxEntries
	sx := int(math.Ceil(math.Cbrt(float64(parentCount))))
	sy := sx

	sort.Slice(nodes, func(i, j int) bool { return nodes[i].box.Center().X < nodes[j].box.Center().X })
	perSlabX := (n + sx - 1) / sx
	var parents []*node
	for x := 0; x < n; x += perSlabX {
		xe := nodes[x:minInt(x+perSlabX, n)]
		sort.Slice(xe, func(i, j int) bool { return xe[i].box.Center().Y < xe[j].box.Center().Y })
		perSlabY := (len(xe) + sy - 1) / sy
		for y := 0; y < len(xe); y += perSlabY {
			ye := xe[y:minInt(y+perSlabY, len(xe))]
			sort.Slice(ye, func(i, j int) bool { return ye[i].box.Center().Z < ye[j].box.Center().Z })
			for z := 0; z < len(ye); z += MaxEntries {
				ze := ye[z:minInt(z+MaxEntries, len(ye))]
				p := &node{children: append([]*node(nil), ze...)}
				p.recomputeBox()
				parents = append(parents, p)
			}
		}
	}
	return parents
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
