package aabbtree_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/aabbtree"
	"repro/internal/mesh"
)

func randomTris(rng *rand.Rand, n int, space, size float64) []geom.Triangle {
	tris := make([]geom.Triangle, n)
	for i := range tris {
		base := geom.V(rng.Float64()*space, rng.Float64()*space, rng.Float64()*space)
		r := func() geom.Vec3 {
			return base.Add(geom.V(rng.Float64()*size, rng.Float64()*size, rng.Float64()*size))
		}
		tris[i] = geom.Triangle{A: r(), B: r(), C: r()}
	}
	return tris
}

// buildTris builds the tree over a triangle list through its packing.
func buildTris(tris []geom.Triangle) *aabbtree.Tree {
	return aabbtree.BuildSoA(geom.SoAFromTriangles(tris))
}

func TestEmptyTree(t *testing.T) {
	tr := buildTris(nil)
	if tr.SoA().Len() != 0 {
		t.Error("triangles != 0")
	}
	if !tr.Bounds().IsEmpty() {
		t.Error("Bounds not empty")
	}
	one := buildTris([]geom.Triangle{{A: geom.V(0, 0, 0), B: geom.V(1, 0, 0), C: geom.V(0, 1, 0)}})
	if tr.IntersectsTree(one) || one.IntersectsTree(tr) {
		t.Error("intersection in empty tree")
	}
	for _, o := range []*aabbtree.Tree{buildTris(nil), one} {
		if !math.IsInf(tr.DistToTreeBounded(o, math.Inf(1)), 1) || !math.IsInf(o.DistToTreeBounded(tr, 5), 1) {
			t.Error("distance to an empty tree should be +Inf")
		}
	}
	if tr.ContainsPoint(geom.V(0, 0, 0)) {
		t.Error("point inside empty tree")
	}
}

// TestSingleTriangleTreeMatchesBrute queries a tree with one-triangle trees:
// the degenerate dual descent (one side is a single leaf) must agree with
// the pairwise loop.
func TestSingleTriangleTreeMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tris := randomTris(rng, 300, 20, 2)
	tr := buildTris(tris)
	if tr.SoA().Len() != 300 {
		t.Fatalf("triangles = %d", tr.SoA().Len())
	}

	for trial := 0; trial < 200; trial++ {
		base := geom.V(rng.Float64()*20, rng.Float64()*20, rng.Float64()*20)
		q := geom.Triangle{A: base,
			B: base.Add(geom.V(rng.Float64()*3, rng.Float64()*3, rng.Float64()*3)),
			C: base.Add(geom.V(rng.Float64()*3, rng.Float64()*3, rng.Float64()*3))}

		want := false
		for _, x := range tris {
			if geom.TriTriIntersect(x, q) {
				want = true
				break
			}
		}
		if got := tr.IntersectsTree(buildTris([]geom.Triangle{q})); got != want {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func TestIntersectsTreeMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		a := randomTris(rng, 60, 10, 2)
		// Shift the second set progressively further away so both outcomes occur.
		shift := float64(trial) * 0.5
		b := randomTris(rng, 60, 10, 2)
		for i := range b {
			b[i].A.X += shift
			b[i].B.X += shift
			b[i].C.X += shift
		}
		want := false
	outer:
		for _, x := range a {
			for _, y := range b {
				if geom.TriTriIntersect(x, y) {
					want = true
					break outer
				}
			}
		}
		ta, tb := buildTris(a), buildTris(b)
		if got := ta.IntersectsTree(tb); got != want {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
		if got := tb.IntersectsTree(ta); got != want {
			t.Fatalf("trial %d (sym): got %v, want %v", trial, got, want)
		}
	}
}

func TestDistToTreeMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		a := randomTris(rng, 50, 10, 2)
		b := randomTris(rng, 50, 10, 2)
		shift := 5 + float64(trial)
		for i := range b {
			b[i].A.X += shift
			b[i].B.X += shift
			b[i].C.X += shift
		}
		want := math.Inf(1)
		for _, x := range a {
			for _, y := range b {
				if d := geom.TriTriDist2(x, y); d < want {
					want = d
				}
			}
		}
		want = math.Sqrt(want)
		got := buildTris(a).DistToTreeBounded(buildTris(b), math.Inf(1))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func TestDistToSingleTriangleTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tris := randomTris(rng, 100, 10, 2)
	tr := buildTris(tris)
	for trial := 0; trial < 50; trial++ {
		base := geom.V(rng.Float64()*30-10, rng.Float64()*30-10, rng.Float64()*30-10)
		q := geom.Triangle{A: base, B: base.Add(geom.V(1, 0, 0)), C: base.Add(geom.V(0, 1, 0))}
		want := math.Inf(1)
		for _, x := range tris {
			if d := geom.TriTriDist2(x, q); d < want {
				want = d
			}
		}
		want = math.Sqrt(want)
		qt := buildTris([]geom.Triangle{q})
		got := tr.DistToTreeBounded(qt, math.Inf(1))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("got %v, want %v", got, want)
		}
		// With a tight upper bound the result is still correct when the
		// bound is not smaller than the true distance.
		got2 := qt.DistToTreeBounded(tr, want*1.001+1e-9)
		if math.Abs(got2-want) > 1e-9 {
			t.Fatalf("bounded: got %v, want %v", got2, want)
		}
	}
}

func TestContainsPointSphere(t *testing.T) {
	m := mesh.Icosphere(5, 3)
	tr := aabbtree.BuildFaces(m.Vertices, m.Faces, nil)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		p := geom.V(rng.Float64()*12-6, rng.Float64()*12-6, rng.Float64()*12-6)
		r := p.Len()
		if r > 4.99 && r < 5.01 {
			continue // too close to the surface
		}
		want := geom.PointInTriangles(p, m.Triangles())
		if got := tr.ContainsPoint(p); got != want {
			t.Fatalf("point %v: tree=%v brute=%v", p, got, want)
		}
	}
}

func TestBuildCopiesInput(t *testing.T) {
	m := mesh.Tetrahedron(1)
	tr := aabbtree.BuildFaces(m.Vertices, m.Faces, nil)
	want := tr.SoA().At(0)
	// BuildFaces must not retain the caller's vertices.
	for i := range m.Vertices {
		m.Vertices[i] = geom.V(9, 9, 9)
	}
	if tr.SoA().At(0) != want {
		t.Error("BuildFaces retained the input vertices")
	}
}

func BenchmarkBuildFaces(b *testing.B) {
	m := mesh.Icosphere(5, 4) // 5120 faces
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aabbtree.BuildFaces(m.Vertices, m.Faces, nil)
	}
}

// BenchmarkDistToTreeBounded measures the dual descent between two
// 1280-face spheres five radii apart: unbounded, and seeded with a bound
// just above the answer, as the refinement ladder's upper LODs are.
func BenchmarkDistToTreeBounded(b *testing.B) {
	a := mesh.Icosphere(5, 3)
	c := mesh.Icosphere(5, 3)
	c.Translate(geom.V(15, 3, 1))
	ta, tc := aabbtree.BuildFaces(a.Vertices, a.Faces, nil), aabbtree.BuildFaces(c.Vertices, c.Faces, nil)
	exact := ta.DistToTreeBounded(tc, math.Inf(1))
	for _, bc := range []struct {
		name  string
		upper float64
	}{{"inf", math.Inf(1)}, {"tight", exact * 1.01}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkDist = ta.DistToTreeBounded(tc, bc.upper)
			}
		})
	}
}

var sinkDist float64

func BenchmarkIntersectsTree(b *testing.B) {
	a := mesh.Icosphere(5, 3)
	c := mesh.Icosphere(5, 3)
	c.Translate(geom.V(7, 0, 0))
	ta, tc := aabbtree.BuildFaces(a.Vertices, a.Faces, nil), aabbtree.BuildFaces(c.Vertices, c.Faces, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ta.IntersectsTree(tc)
	}
}

func TestContainsPointMultiComponent(t *testing.T) {
	// Multi-component surfaces (like the vessel tube unions) must keep
	// containment parity working: build two disjoint cubes as one mesh.
	v := mesh.Cube(geom.V(0, 0, 0), geom.V(2, 2, 2))
	c2 := mesh.Cube(geom.V(5, 0, 0), geom.V(8, 3, 3))
	off := int32(len(v.Vertices))
	v.Vertices = append(v.Vertices, c2.Vertices...)
	for _, f := range c2.Faces {
		v.Faces = append(v.Faces, mesh.Face{f[0] + off, f[1] + off, f[2] + off})
	}
	tr := aabbtree.BuildFaces(v.Vertices, v.Faces, nil)
	rng := rand.New(rand.NewSource(8))
	b := v.Bounds().Expand(1)
	tris := v.Triangles()
	agree, total := 0, 0
	for i := 0; i < 1500; i++ {
		p := geom.V(
			b.Min.X+rng.Float64()*b.Size().X,
			b.Min.Y+rng.Float64()*b.Size().Y,
			b.Min.Z+rng.Float64()*b.Size().Z,
		)
		want := geom.PointInTriangles(p, tris)
		got := tr.ContainsPoint(p)
		total++
		if got == want {
			agree++
		} else {
			t.Fatalf("point %v: tree=%v brute=%v", p, got, want)
		}
	}
	if total == 0 || agree != total {
		t.Fatalf("agreement %d/%d", agree, total)
	}
}

// TestDistToTreeBounded: with an upper bound above the true distance the
// result is exact; with a bound below it the result must exceed the bound
// (the "greater than upper" contract that lets distance joins prune).
func TestDistToTreeBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		a := randomTris(rng, 50, 10, 2)
		b := randomTris(rng, 50, 10, 2)
		shift := 5 + float64(trial)
		for i := range b {
			b[i].A.X += shift
			b[i].B.X += shift
			b[i].C.X += shift
		}
		ta, tb := buildTris(a), buildTris(b)
		exact := ta.DistToTreeBounded(tb, math.Inf(1))

		// Generous bound: exact answer.
		if got := ta.DistToTreeBounded(tb, exact*2+1); math.Abs(got-exact) > 1e-9 {
			t.Fatalf("trial %d: bounded(loose) = %v, want %v", trial, got, exact)
		}
		// Bound exactly at the distance (plus epsilon): still found.
		if got := ta.DistToTreeBounded(tb, exact*(1+1e-9)); math.Abs(got-exact) > 1e-6 {
			t.Fatalf("trial %d: bounded(tight) = %v, want %v", trial, got, exact)
		}
		// Bound below the distance: anything > bound is acceptable.
		low := exact / 2
		if low > 0 {
			if got := ta.DistToTreeBounded(tb, low); got <= low*(1-1e-12) {
				t.Fatalf("trial %d: bounded(low) = %v, want > %v", trial, got, low)
			}
		}
		// Infinite bound degenerates to the exact descent.
		if got := ta.DistToTreeBounded(tb, math.Inf(1)); math.Abs(got-exact) > 1e-9 {
			t.Fatalf("trial %d: bounded(inf) = %v, want %v", trial, got, exact)
		}
	}
}

func TestBuildSoAEmpty(t *testing.T) {
	tr := aabbtree.BuildSoA(geom.SoAFromTriangles(nil))
	if tr.SoA().Len() != 0 || !tr.Bounds().IsEmpty() {
		t.Fatal("empty SoA tree not empty")
	}
}
