package aabbtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
		tris[i] = geom.Triangle{A: p(), B: p(), C: p()}
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
		same[i] = geom.Triangle{A: geom.V(1, 1, 1), B: geom.V(2, 1, 1), C: geom.V(1, 2, 1)}
	}
	sets["identical"] = same
	// Equal centroids, different extents: concentric scaled copies.
	conc := make([]geom.Triangle, 100)
	for i := range conc {
		r := 1 + float64(i)
		conc[i] = geom.Triangle{A: geom.V(-r, -r, 0), B: geom.V(2*r, -r, 0), C: geom.V(-r, 2*r, 0)}
	}
	sets["concentric"] = conc
	// Coplanar and collinear centroids: two axes carry no information.
	line := make([]geom.Triangle, 130)
	for i := range line {
		x := float64(i % 13) // many ties along the one informative axis
		line[i] = geom.Triangle{A: geom.V(x, 0, 0), B: geom.V(x+0.5, 0, 0), C: geom.V(x, 0.5, 0)}
	}
	sets["collinear-ties"] = line
	// Zero-area triangles.
	pts := make([]geom.Triangle, 40)
	for i := range pts {
		p := geom.V(rng.Float64()*4, rng.Float64()*4, rng.Float64()*4)
		pts[i] = geom.Triangle{A: p, B: p, C: p}
	}
	sets["points"] = pts
	return sets
}

func TestStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, set := range degenerateSets(rng) {
		t.Run(name, func(t *testing.T) { checkStructure(t, buildTris(set), set) })
	}
	for _, n := range []int{2, 7, 8, 9, 63, 64, 65, 1000, 1025} {
		set := randomSet(rng, n, geom.Vec3{}, 20, 2)
		checkStructure(t, buildTris(set), set)
	}
}

// TestBuildFacesMatchesBuildSoA: a tree built from indexed faces is the tree
// BuildSoA builds over their packing, nodes and lanes alike, on the inputs
// the median split finds hardest.
func TestBuildFacesMatchesBuildSoA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := degenerateSets(rng)
	sets["random"] = randomSet(rng, 1025, geom.Vec3{}, 20, 2)
	for name, set := range sets {
		verts, faces := indexed(set)
		if got, want := BuildFaces(verts, faces, nil), BuildSoA(geom.SoAFromTriangles(set)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BuildFaces differs from BuildSoA", name)
		}
	}
}

// buildTris builds the tree over a triangle list through its packing.
func buildTris(set []geom.Triangle) *Tree { return BuildSoA(geom.SoAFromTriangles(set)) }

// indexed lists the triangles as an indexed mesh, three vertices each.
func indexed(set []geom.Triangle) ([]geom.Vec3, [][3]int32) {
	verts := make([]geom.Vec3, 0, 3*len(set))
	faces := make([][3]int32, len(set))
	for i, tri := range set {
		verts = append(verts, tri.A, tri.B, tri.C)
		faces[i] = [3]int32{int32(3 * i), int32(3*i + 1), int32(3*i + 2)}
	}
	return verts, faces
}

// TestBuildOrderedMatchesBuildFaces: the tree built from a build's tree
// order is that build's tree, nodes, lanes and order alike, on the inputs
// the median split finds hardest and on random sets of every leaf-boundary
// size.
func TestBuildOrderedMatchesBuildFaces(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := degenerateSets(rng)
	for _, n := range []int{2, 7, 8, 9, 63, 64, 65, 1000, 1025} {
		sets[fmt.Sprint("random-", n)] = randomSet(rng, n, geom.Vec3{}, 20, 2)
	}
	for name, set := range sets {
		verts, faces := indexed(set)
		want := BuildFaces(verts, faces, nil)
		if got := BuildFaces(verts, faces, want.Order()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BuildFaces from its own tree order differs from BuildFaces", name)
		}
	}
}

// FuzzBuildFaces builds a random indexed set (shared vertices, as in a
// mesh) in a random permutation: the tree must pass checkStructure, lay the
// lanes out in that order, and answer IntersectsTree and MinDist2Bounded
// against another random set exactly as the pairwise loops do. Orders with
// a duplicate, an index out of range or the wrong length are ignored: the
// tree is the one built with no order.
func FuzzBuildFaces(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(2), uint16(1))
	f.Add(int64(3), uint16(maxLeafSize+1))
	f.Add(int64(4), uint16(97))
	f.Add(int64(5), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := int(size) % 512
		verts := make([]geom.Vec3, 1+rng.Intn(n+3))
		for i := range verts {
			verts[i] = geom.V(rng.Float64()*8, rng.Float64()*8, rng.Float64()*8)
		}
		faces := make([][3]int32, n)
		input := make([]geom.Triangle, n)
		for i := range faces {
			for k := range faces[i] {
				faces[i][k] = int32(rng.Intn(len(verts)))
			}
			input[i] = geom.Triangle{A: verts[faces[i][0]], B: verts[faces[i][1]], C: verts[faces[i][2]]}
		}
		order := make([]int32, n)
		for i, p := range rng.Perm(n) {
			order[i] = int32(p)
		}

		tr := BuildFaces(verts, faces, order)
		checkStructure(t, tr, input)
		for i, o := range order {
			if tr.SoA().At(i) != input[o] {
				t.Fatalf("lane %d holds a triangle other than input %d", i, o)
			}
		}

		other := randomSet(rng, 1+rng.Intn(40), geom.V(rng.Float64()*10-1, 0, 0), 6, 1.5)
		wantHit, want2 := false, math.Inf(1)
		for _, x := range input {
			for _, y := range other {
				wantHit = wantHit || geom.TriTriIntersect(x, y)
				want2 = math.Min(want2, geom.TriTriDist2(x, y))
			}
		}
		ot := buildTris(other)
		if got := tr.IntersectsTree(ot); got != wantHit {
			t.Errorf("IntersectsTree = %v, brute %v", got, wantHit)
		}
		if got := tr.MinDist2Bounded(ot, math.Inf(1), 0); got != want2 {
			t.Errorf("MinDist2Bounded = %v, brute %v", got, want2)
		}

		bad := map[string][]int32{"long": append(slices.Clone(order), 0)}
		if n > 0 {
			bad["short"] = order[:n-1]
			out := slices.Clone(order)
			out[rng.Intn(n)] = int32(n)
			bad["out of range"] = out
			neg := slices.Clone(order)
			neg[rng.Intn(n)] = -1
			bad["negative"] = neg
		}
		if n > 1 {
			dup := slices.Clone(order)
			i := rng.Intn(n)
			dup[i] = dup[(i+1+rng.Intn(n-1))%n]
			bad["duplicate"] = dup
		}
		want := BuildFaces(verts, faces, nil)
		for name, o := range bad {
			if got := BuildFaces(verts, faces, o); !reflect.DeepEqual(got, want) {
				t.Errorf("%s order of %d faces: tree differs from BuildFaces with no order", name, n)
			}
		}
	})
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
		trees[name] = buildTris(set)
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

// BenchmarkBuildOrdered times BuildFaces given the tree order of an earlier
// build: a pack and a fill, with no selection.
func BenchmarkBuildOrdered(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	verts, faces := indexed(randomSet(rng, 5120, geom.Vec3{}, 50, 1))
	order := BuildFaces(verts, faces, nil).Order()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFaces(verts, faces, order)
	}
}
