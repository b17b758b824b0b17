package mesh

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/aabbtree"
)

// halves splits a mesh's faces into two groups, odd and even, so that the
// group order differs from the face order.
func halves(m *Mesh) func() [][]int32 {
	return func() [][]int32 {
		parts := make([][]int32, 2)
		for f := 0; f < m.NumFaces(); f++ {
			parts[f%2] = append(parts[f%2], int32(f))
		}
		return parts
	}
}

// sameTriangles reports whether s holds exactly the mesh's faces, in any
// order.
func sameTriangles(m *Mesh, s *geom.TriSoA) bool {
	if s.Len() != m.NumFaces() {
		return false
	}
	want := map[geom.Triangle]int{}
	for f := 0; f < m.NumFaces(); f++ {
		want[m.Triangle(f)]++
	}
	for i := 0; i < s.Len(); i++ {
		want[s.At(i)]--
	}
	for _, n := range want {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestTreeMemoAdoptsTreeOrderedLanes(t *testing.T) {
	m := Icosphere(2, 2)
	before := m.SoA()
	tree, built := m.Tree()
	if !built {
		t.Fatal("first Tree() did not report a build")
	}
	if again, built := m.Tree(); again != tree || built {
		t.Fatal("second Tree() rebuilt or returned another tree")
	}
	after := m.SoA()
	if after == before || after != tree.SoA() {
		t.Fatal("the mesh did not adopt the tree's lanes as its SoA memo")
	}
	if !sameTriangles(m, after) || !sameTriangles(m, before) {
		t.Fatal("a packing lost or duplicated faces")
	}
	// One packing plus the nodes: the tree must not double the lanes.
	want := int64(len(m.Vertices))*24 + int64(len(m.Faces))*12 + after.Bytes() + tree.NodeBytes()
	if got := m.FootprintBytes(); got != want {
		t.Fatalf("FootprintBytes = %d, want %d (mesh + one SoA + nodes)", got, want)
	}
	if perFace := float64(tree.NodeBytes()) / float64(m.NumFaces()); perFace > 64 {
		t.Errorf("tree nodes cost %.1f B/face, budget is at most 64", perFace)
	}
	m.Translate(geom.V(1, 0, 0))
	if again, built := m.Tree(); !built || again == tree {
		t.Fatal("a mutation did not drop the tree memo")
	}
}

func TestGroupsMemo(t *testing.T) {
	m := Icosphere(2, 2)
	m.Tree() // scrambles the SoA memo's order: groups must not index into it
	g, built := m.Groups(halves(m))
	if !built || len(g.List) != 2 {
		t.Fatalf("Groups built=%v with %d groups, want a build of 2", built, len(g.List))
	}
	if again, built := m.Groups(func() [][]int32 { panic("assign called on a memo hit") }); again != g || built {
		t.Fatal("second Groups() rebuilt")
	}
	for gi, grp := range g.List {
		if grp.Tris.Len() != m.NumFaces()/2 {
			t.Fatalf("group %d has %d faces", gi, grp.Tris.Len())
		}
		for i := 0; i < grp.Tris.Len(); i++ {
			if want := m.Triangle(2*i + gi); grp.Tris.At(i) != want {
				t.Fatalf("group %d triangle %d is %v, want face %d = %v", gi, i, grp.Tris.At(i), 2*i+gi, want)
			}
			if !grp.Box.Contains(grp.Tris.Box(i)) {
				t.Fatalf("group %d box does not cover its triangle %d", gi, i)
			}
		}
	}
	// The packing, the block lanes of each view, and the headers — all of it
	// in the books, and within budget.
	wantBytes := g.lanes.Bytes() + int64(len(g.List))*groupBytes
	for i := range g.List {
		wantBytes += g.List[i].Tris.BlockBytes()
	}
	if got := g.bytes(m.SoA()); got != wantBytes {
		t.Errorf("groups account for %d B, hold %d", got, wantBytes)
	}
	if perFace := float64(wantBytes) / float64(m.NumFaces()); perFace > 130 {
		t.Errorf("groups cost %.1f B/face, budget is 120 + 2×3 of block lanes plus headers", perFace)
	}

	// An unpartitioned object is one group over the mesh's own lanes.
	u := Icosphere(1, 1)
	ug, _ := u.Groups(func() [][]int32 { return nil })
	if len(ug.List) != 1 || ug.List[0].Tris.Len() != u.NumFaces() {
		t.Fatalf("unpartitioned mesh: %d groups", len(ug.List))
	}
	if got, want := u.FootprintBytes(), int64(len(u.Vertices))*24+int64(len(u.Faces))*12+u.SoA().Bytes()+groupBytes; got != want {
		t.Errorf("single-group footprint %d, want %d (lanes shared with the SoA memo)", got, want)
	}
	// Building the tree re-lays the SoA memo; the single group must follow
	// it onto the new lanes instead of pinning the replaced packing.
	before := u.FootprintBytes()
	tree, _ := u.Tree()
	moved, built := u.Groups(func() [][]int32 { panic("assign called on a memo hit") })
	if built || moved == ug || moved.lanes != tree.SoA() || moved.List[0].Box != ug.List[0].Box {
		t.Error("single group did not move onto the tree-ordered lanes")
	}
	if got, want := u.FootprintBytes(), before+tree.NodeBytes(); got != want {
		t.Errorf("footprint after tree on a single-group mesh %d, want %d", got, want)
	}
}

// TestConcurrentFirstBuilds races first builders of every memo on one shared
// mesh: each memo must be published exactly once, every caller must get the
// published value, and the owner must have heard about each change. Run
// under -race.
func TestConcurrentFirstBuilds(t *testing.T) {
	for round := 0; round < 20; round++ {
		m := Icosphere(1, 2)
		var notified atomic.Int64
		m.OnFootprintChange(func() { notified.Add(1) })

		const workers = 8
		var treeBuilds, groupBuilds atomic.Int64
		trees := make([]*aabbtree.Tree, workers)
		groups := make([]*Groups, workers)
		firstSoAs := make([]*geom.TriSoA, workers)
		soas := make([]*geom.TriSoA, workers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				var built bool
				if w%2 == 0 { // vary which memo each worker reaches for first
					firstSoAs[w] = m.SoA()
				}
				if trees[w], built = m.Tree(); built {
					treeBuilds.Add(1)
				}
				if groups[w], built = m.Groups(halves(m)); built {
					groupBuilds.Add(1)
				}
				soas[w] = m.SoA()
			}(w)
		}
		close(start)
		wg.Wait()

		if treeBuilds.Load() != 1 || groupBuilds.Load() != 1 {
			t.Fatalf("round %d: %d tree builds, %d group builds reported; want one each",
				round, treeBuilds.Load(), groupBuilds.Load())
		}
		for w := 1; w < workers; w++ {
			if trees[w] != trees[0] || groups[w] != groups[0] {
				t.Fatalf("round %d: worker %d saw a different memo than worker 0", round, w)
			}
		}
		// A reader may still have caught the packing the tree replaced; either
		// is a complete, immutable set. Once quiescent the memo is the tree's.
		for w := range soas {
			if !sameTriangles(m, soas[w]) {
				t.Fatalf("round %d: worker %d got an incomplete SoA", round, w)
			}
		}
		if m.SoA() != trees[0].SoA() {
			t.Fatalf("round %d: final SoA memo is not the tree's", round)
		}
		// Tree, groups and, if a face-order packing was published before the
		// tree's lanes replaced it, soa: one announcement per published memo.
		// SoA returns only published packings, and a tree build publishes
		// none but its own, so a face-order one was published iff some SoA
		// call returned a packing other than the tree's.
		want := int64(2)
		for _, s := range append(firstSoAs, soas...) {
			if s != nil && s != trees[0].SoA() {
				want = 3
				break
			}
		}
		if got := notified.Load(); got != want {
			t.Fatalf("round %d: owner notified %d times, want %d", round, got, want)
		}
	}
}
