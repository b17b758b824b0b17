package aabbtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// checkStructure verifies the invariants every query relies on: nodes in
// preorder, every triangle of the input in exactly one leaf, leaves within
// the size cap, each node's box exactly the union of what lies below it
// (hence ⊇ its children), and the node array allocated at its final size.
func checkStructure(t *testing.T, tr *Tree, input []geom.Triangle) {
	t.Helper()
	n := len(input)
	if tr.SoA().Len() != n {
		t.Fatalf("triangles = %d, want %d", tr.SoA().Len(), n)
	}
	if n == 0 {
		if tr.root != -1 || len(tr.nodes) != 0 || !tr.Bounds().IsEmpty() {
			t.Fatalf("empty tree has root %d, %d nodes, bounds %v", tr.root, len(tr.nodes), tr.Bounds())
		}
		return
	}
	if len(tr.nodes) != nodeCount(n) || cap(tr.nodes) != len(tr.nodes) {
		t.Fatalf("%d nodes (cap %d), nodeCount predicts %d", len(tr.nodes), cap(tr.nodes), nodeCount(n))
	}

	covered := make([]int, n)
	var walk func(ni int32) geom.Box3
	walk = func(ni int32) geom.Box3 {
		nd := tr.nodes[ni]
		box := geom.EmptyBox()
		if nd.left < 0 {
			if nd.right >= 0 || nd.end-nd.start < 1 || nd.end-nd.start > maxLeafSize {
				t.Fatalf("malformed leaf %d: %+v", ni, nd)
			}
			for i := nd.start; i < nd.end; i++ {
				covered[i]++
				box = box.Union(tr.s.At(int(i)).Bounds())
			}
		} else {
			if nd.left != ni+1 || nd.right <= nd.left {
				t.Fatalf("node %d children (%d, %d) are not in preorder", ni, nd.left, nd.right)
			}
			lb, rb := walk(nd.left), walk(nd.right)
			if !nd.box.Contains(lb) || !nd.box.Contains(rb) {
				t.Fatalf("node %d box %v does not contain its children %v, %v", ni, nd.box, lb, rb)
			}
			box = lb.Union(rb)
		}
		if nd.box != box {
			t.Fatalf("node %d box %v is not the union %v of its subtree", ni, nd.box, box)
		}
		return box
	}
	walk(tr.root)
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("tree-order triangle %d lies in %d leaves", i, c)
		}
	}

	// The tree's lanes are a permutation of the input.
	key := func(tri geom.Triangle) [9]float64 {
		return [9]float64{tri.A.X, tri.A.Y, tri.A.Z, tri.B.X, tri.B.Y, tri.B.Z, tri.C.X, tri.C.Y, tri.C.Z}
	}
	cmp := func(a, b [9]float64) int { return slices.Compare(a[:], b[:]) }
	want, got := make([][9]float64, n), make([][9]float64, n)
	for i := range input {
		want[i], got[i] = key(input[i]), key(tr.s.At(i))
	}
	slices.SortFunc(want, cmp)
	slices.SortFunc(got, cmp)
	if !slices.Equal(want, got) {
		t.Fatal("tree lanes are not a permutation of the input triangles")
	}
}

func randomSet(rng *rand.Rand, n int, origin geom.Vec3, space, size float64) []geom.Triangle {
	tris := make([]geom.Triangle, n)
	for i := range tris {
		base := origin.Add(geom.V(rng.Float64()*space, rng.Float64()*space, rng.Float64()*space))
		p := func() geom.Vec3 {
			return base.Add(geom.V(rng.Float64()*size, rng.Float64()*size, rng.Float64()*size))
		}
		tris[i] = geom.Tri(p(), p(), p())
	}
	return tris
}

// degenerateSets are the inputs a median split on centroid keys could trip
// over.
func degenerateSets(rng *rand.Rand) map[string][]geom.Triangle {
	sets := map[string][]geom.Triangle{
		"empty":  nil,
		"single": randomSet(rng, 1, geom.Vec3{}, 1, 1),
		"leaf":   randomSet(rng, maxLeafSize, geom.Vec3{}, 5, 1),
		"leaf+1": randomSet(rng, maxLeafSize+1, geom.Vec3{}, 5, 1),
	}
	// All-equal centroids: the same triangle many times over.
	same := make([]geom.Triangle, 257)
	for i := range same {
		same[i] = geom.Tri(geom.V(1, 1, 1), geom.V(2, 1, 1), geom.V(1, 2, 1))
	}
	sets["identical"] = same
	// Equal centroids, different extents: concentric scaled copies.
	conc := make([]geom.Triangle, 100)
	for i := range conc {
		r := 1 + float64(i)
		conc[i] = geom.Tri(geom.V(-r, -r, 0), geom.V(2*r, -r, 0), geom.V(-r, 2*r, 0))
	}
	sets["concentric"] = conc
	// Coplanar and collinear centroids: two axes carry no information.
	line := make([]geom.Triangle, 130)
	for i := range line {
		x := float64(i % 13) // many ties along the one informative axis
		line[i] = geom.Tri(geom.V(x, 0, 0), geom.V(x+0.5, 0, 0), geom.V(x, 0.5, 0))
	}
	sets["collinear-ties"] = line
	// Zero-area triangles.
	pts := make([]geom.Triangle, 40)
	for i := range pts {
		p := geom.V(rng.Float64()*4, rng.Float64()*4, rng.Float64()*4)
		pts[i] = geom.Tri(p, p, p)
	}
	sets["points"] = pts
	return sets
}

func TestStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, set := range degenerateSets(rng) {
		t.Run(name, func(t *testing.T) { checkStructure(t, Build(set), set) })
	}
	for _, n := range []int{2, 7, 8, 9, 63, 64, 65, 1000, 1025} {
		set := randomSet(rng, n, geom.Vec3{}, 20, 2)
		checkStructure(t, Build(set), set)
	}
}

// TestBuildLeavesInputUntouched: callers (the mesh memo, the benchmark's
// probes) keep using the SoA they built the tree from.
func TestBuildLeavesInputUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	set := randomSet(rng, 300, geom.Vec3{}, 20, 2)
	s := geom.SoAFromTriangles(set)
	tr := BuildSoA(s)
	for i, want := range set {
		if s.At(i) != want {
			t.Fatalf("BuildSoA moved input triangle %d", i)
		}
	}
	if tr.SoA() == s {
		t.Fatal("tree shares the caller's lanes instead of its own tree-ordered copy")
	}
}

// TestDegenerateSetsMatchBrute runs every tree query against the pairwise
// loops on the degenerate sets, against each other and against random sets
// placed apart, touching and overlapping.
func TestDegenerateSetsMatchBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := degenerateSets(rng)
	sets["random-near"] = randomSet(rng, 90, geom.V(3, 3, 0.5), 6, 1.5)
	sets["random-far"] = randomSet(rng, 90, geom.V(40, 0, 0), 6, 1.5)

	trees := map[string]*Tree{}
	for name, set := range sets {
		trees[name] = Build(set)
	}
	for an, a := range sets {
		for bn, b := range sets {
			wantHit, want2 := false, math.Inf(1)
			for _, x := range a {
				for _, y := range b {
					wantHit = wantHit || geom.TriTriIntersect(x, y)
					want2 = math.Min(want2, geom.TriTriDist2(x, y))
				}
			}
			ta, tb := trees[an], trees[bn]
			if got := ta.IntersectsTree(tb); got != wantHit {
				t.Errorf("%s × %s: IntersectsTree = %v, brute %v", an, bn, got, wantHit)
			}
			want := math.Sqrt(want2)
			if got := ta.DistToTreeBounded(tb, math.Inf(1)); got != want {
				t.Errorf("%s × %s: DistToTreeBounded(+Inf) = %v, brute %v", an, bn, got, want)
			}
			if math.IsInf(want, 1) {
				continue
			}
			// Bounded descent: exact when the bound admits the distance
			// (equality included, via the next float up), "≥ bound" otherwise.
			if got := ta.DistToTreeBounded(tb, math.Nextafter(want, math.Inf(1))); got != want {
				t.Errorf("%s × %s: bound just above the distance returned %v, want exact %v", an, bn, got, want)
			}
			if want > 0 {
				if got := ta.DistToTreeBounded(tb, want/2); got < want/2 {
					t.Errorf("%s × %s: bound %v below the distance returned %v", an, bn, want/2, got)
				}
			}
		}
	}
}

func TestSelectNth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		key := make([]float64, n)
		for i := range key {
			switch trial % 3 {
			case 0:
				key[i] = rng.Float64()
			case 1:
				key[i] = float64(rng.Intn(4)) // heavy ties
			default:
				key[i] = 7 // all equal
			}
		}
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		k := rng.Intn(n)
		selectNth(idx, key, k)

		seen := make([]bool, n)
		for _, i := range idx {
			if seen[i] {
				t.Fatalf("trial %d: index %d duplicated", trial, i)
			}
			seen[i] = true
		}
		for i := 0; i < k; i++ {
			if key[idx[i]] > key[idx[k]] {
				t.Fatalf("trial %d: element before rank %d is larger", trial, k)
			}
		}
		for i := k + 1; i < n; i++ {
			if key[idx[i]] < key[idx[k]] {
				t.Fatalf("trial %d: element after rank %d is smaller", trial, k)
			}
		}
	}
}

func BenchmarkBuildSoA(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	s := geom.SoAFromTriangles(randomSet(rng, 5120, geom.Vec3{}, 50, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSoA(s)
	}
}
