package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pairKinds are the shapes of triangle pair the bounded primitive is
// checked on, by index: the fuzz target draws one from its input.
var pairKinds = []string{"random", "near-coplanar", "touching", "needle", "point", "needle-needle", "far-offset", "needle-touching", "sliver"}

// pairScales are the units the pairs are drawn in: the primitive's answers
// must not depend on the unit of the coordinates.
var pairScales = []float64{1, 1e-3, 1e3}

// genPair draws a triangle pair of the given kind, with coordinates of the
// order of scale.
func genPair(rng *rand.Rand, kind int, scale float64) (a, b Triangle) {
	sep := rng.Float64() * 6 * scale
	a = randTriNear(rng, Vec3{}, 2*scale)
	b = randTriNear(rng, Vec3{X: sep, Y: sep / 2}, 2*scale)
	// vertex returns a pointer to a random vertex of t.
	vertex := func(t *Triangle) *Vec3 { return [3]*Vec3{&t.A, &t.B, &t.C}[rng.Intn(3)] }
	switch pairKinds[kind%len(pairKinds)] {
	case "near-coplanar":
		// b squashed to within a hair of a's plane.
		n := a.Normal().Normalize()
		h := (rng.Float64() - 0.5) * 1e-3 * scale
		flat := func(p Vec3) Vec3 { return p.Sub(n.Mul(n.Dot(p.Sub(a.A)) - h)) }
		b = Triangle{flat(b.A), flat(b.B), flat(b.C)}
	case "touching":
		switch rng.Intn(3) {
		case 0: // a shared vertex, any of a's with any of b's
			*vertex(&b) = *vertex(&a)
		case 1: // a shared edge
			b.A, b.B = a.C, a.B
			if rng.Intn(2) == 0 {
				b.B, b.C = a.A, a.C
			}
		default: // a vertex of b on a's face
			u, v := rng.Float64()/2, rng.Float64()/2
			b.C = a.A.Add(a.B.Sub(a.A).Mul(u)).Add(a.C.Sub(a.A).Mul(v))
		}
	case "needle":
		b.B = b.A.Lerp(b.C, rng.Float64())
	case "point":
		b.B, b.C = b.A, b.A
	case "needle-needle":
		a.C = a.A.Lerp(a.B, 0.5)
		b.B = b.A.Lerp(b.C, 0.5)
	case "far-offset":
		// The same pair far from the origin: coordinates 50 times the sizes.
		off := Vec3{100, -80, 60}.Mul(scale)
		a = Triangle{a.A.Add(off), a.B.Add(off), a.C.Add(off)}
		b = Triangle{b.A.Add(off), b.B.Add(off), b.C.Add(off)}
	case "sliver":
		// b all but flat: its middle vertex off the line of the other two
		// by 1e-3 to 1e-11 of its length, so that its normal is a cross
		// product of nearly parallel edges.
		off := randTriNear(rng, Vec3{}, 2*scale).A.Mul(math.Pow(10, -3-8*rng.Float64()))
		b.B = b.A.Lerp(b.C, rng.Float64()).Add(off)
	case "needle-touching":
		// A needle with one end on a vertex of a — of a proper triangle, or
		// of another needle.
		if rng.Intn(3) == 0 {
			a.B = a.A.Lerp(a.C, rng.Float64())
		}
		b.A = *vertex(&a)
		b.B = b.A.Lerp(b.C, rng.Float64())
		if rng.Intn(2) == 0 {
			b.A, b.C = b.C, b.A
		}
	}
	if rng.Intn(2) == 0 {
		a, b = b, a
	}
	return a, b
}

// referenceDist2 is the classical fold the primitive replaced, assembled
// from the public point and segment primitives: zero for intersecting or
// piercing triangles, else the minimum over the 6 vertex–triangle and the 9
// edge–edge closest-point pairs.
func referenceDist2(t1, t2 Triangle) float64 {
	if TriTriIntersect(t1, t2) {
		return 0
	}
	tol := 1e-12 * math.Sqrt(size2(t1, t2))
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		e1 := Segment{t1.Vertex(i), t1.Vertex((i + 1) % 3)}
		f2 := Segment{t2.Vertex(i), t2.Vertex((i + 1) % 3)}
		if crossesFaceWithin(t2, e1.P, e1.Q, tol) || crossesFaceWithin(t1, f2.P, f2.Q, tol) {
			return 0
		}
		best = math.Min(best, t2.ClosestPointToPoint(e1.P).Dist2(e1.P))
		best = math.Min(best, t1.ClosestPointToPoint(f2.P).Dist2(f2.P))
		for j := 0; j < 3; j++ {
			_, _, d := e1.ClosestPoints(Segment{t2.Vertex(j), t2.Vertex((j + 1) % 3)})
			best = math.Min(best, d)
		}
	}
	return best
}

// sampledDist2 is the smallest squared distance between the points of a
// barycentric grid of m subdivisions on each triangle (vertices and edge
// points included): never below the true distance, and above it by no more
// than the grid spacing allows.
func sampledDist2(t1, t2 Triangle, m int) float64 {
	grid := func(t Triangle) []Vec3 {
		var pts []Vec3
		for i := 0; i <= m; i++ {
			for j := 0; i+j <= m; j++ {
				u, v := float64(i)/float64(m), float64(j)/float64(m)
				pts = append(pts, t.A.Mul(1-u-v).Add(t.B.Mul(u)).Add(t.C.Mul(v)))
			}
		}
		return pts
	}
	best := math.Inf(1)
	g2 := grid(t2)
	for _, p := range grid(t1) {
		for _, q := range g2 {
			best = math.Min(best, p.Dist2(q))
		}
	}
	return best
}

// checkBounded holds the primitive to its contract on one pair: at +Inf it
// agrees with the reference fold and with a dense sample of point pairs
// (to 1e-9 of the pair's size), the intersection predicate does not
// contradict it in either argument order, and under every bound it returns
// that same value when it is below the bound, and something at or above the
// bound when it is not.
func checkBounded(t *testing.T, a, b Triangle, bounds []float64, grid int) {
	t.Helper()
	size := math.Sqrt(size2(a, b))
	tol := 1e-9 * size
	want := TriTriDist2(a, b)
	if want != triTriDist2Bounded(a, b, math.Inf(1)) || want < 0 || math.IsNaN(want) {
		t.Fatalf("TriTriDist2 = %v is not the primitive at +Inf\n%v\n%v", want, a, b)
	}
	sym := TriTriDist2(b, a)
	if math.Abs(math.Sqrt(sym)-math.Sqrt(want)) > tol {
		t.Fatalf("asymmetric: %v vs %v\n%v\n%v", want, sym, a, b)
	}
	// Intersecting triangles are at distance zero; for a triangle without
	// area the predicate is defined by the distance, in either order. (Two
	// proper triangles that merely touch are at distance zero whether or
	// not Möller's intervals, rounded, still meet.)
	ab, ba := TriTriIntersect(a, b), TriTriIntersect(b, a)
	flat := a.IsDegenerate() || b.IsDegenerate()
	if ab && want != 0 || ba && sym != 0 || flat && (ab != (want == 0) || ba != (sym == 0)) {
		t.Fatalf("intersect %v / %v swapped, squared distance %v / %v swapped\n%v\n%v", ab, ba, want, sym, a, b)
	}
	d := math.Sqrt(want)
	if ref := math.Sqrt(referenceDist2(a, b)); math.Abs(d-ref) > tol {
		t.Fatalf("distance %v, reference fold %v\n%v\n%v", d, ref, a, b)
	}
	if grid > 0 {
		// No sampled point pair is closer than the reported distance, and
		// the nearest one is no further than the grid spacing puts it.
		sampled := math.Sqrt(sampledDist2(a, b, grid))
		if sampled < d-tol || sampled > d+2*size/float64(grid) {
			t.Fatalf("distance %v, dense sample %v (grid %d, size %v)\n%v\n%v", d, sampled, grid, size, a, b)
		}
	}
	for _, best := range bounds {
		got := triTriDist2Bounded(a, b, best)
		switch {
		case want < best && got != want:
			t.Fatalf("bound %v: got %v, want the unbounded value %v\n%v\n%v", best, got, want, a, b)
		case want >= best && !(got >= best):
			t.Fatalf("bound %v: got %v below the bound, the distance is %v\n%v\n%v", best, got, want, a, b)
		}
	}
}

// boundsAround lists bounds for a pair at squared distance d2 whose larger
// triangle has squared size size2: some that have nothing to do with d2 —
// among them the smallest positive float, which is what a zero distance
// bound is squared to and must still find a touching pair — and bounds on
// both sides of d2 as close as the pair's conditioning lets the contract be
// pinned: a hair (one float, one part in a million) where the distance is
// 1e-5 sizes or more, a factor of two down to 1e-12, and none for pairs
// that all but touch.
func boundsAround(rng *rand.Rand, d2, size2 float64) []float64 {
	bounds := []float64{0, math.SmallestNonzeroFloat64, rng.Float64() * 40 * size2, rng.ExpFloat64() * size2, d2 + size2, math.MaxFloat64, math.Inf(1)}
	if d2 > 1e-24*size2 {
		bounds = append(bounds, d2/2, d2*2)
	}
	if d2 > 1e-10*size2 {
		bounds = append(bounds, d2*(1-1e-6), d2, math.Nextafter(d2, math.Inf(1)), d2*(1+1e-6))
	}
	return bounds
}

// size2 returns the squared length of the longest edge of the two triangles.
func size2(a, b Triangle) float64 {
	return math.Max(
		math.Max(a.A.Dist2(a.B), math.Max(a.B.Dist2(a.C), a.C.Dist2(a.A))),
		math.Max(b.A.Dist2(b.B), math.Max(b.B.Dist2(b.C), b.C.Dist2(b.A))))
}

func TestTriTriDist2Bounded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 60000; i++ {
		a, b := genPair(rng, i, pairScales[i/len(pairKinds)%len(pairScales)])
		grid := 0
		if i%100 < len(pairKinds) {
			grid = 24 // a dense sample of every kind, for one pair in a hundred
		}
		checkBounded(t, a, b, boundsAround(rng, TriTriDist2(a, b), size2(a, b)), grid)
	}
}

// TestTouchingPairsUnderZeroBound pins what a distance bound of zero relies
// on: pairs that share a vertex or an edge exactly are found at distance
// zero under the smallest positive seed, by the primitive and through the
// box gates of the batch kernel, in both argument orders and at any scale;
// and a needle touching at a vertex intersects, whichever argument it is.
func TestTouchingPairsUnderZeroBound(t *testing.T) {
	const seed = math.SmallestNonzeroFloat64
	rng := rand.New(rand.NewSource(29))
	touching := [2]int{slices.Index(pairKinds, "touching"), slices.Index(pairKinds, "needle-touching")}
	for i := 0; i < 60000; i++ {
		a, b := genPair(rng, touching[i%2], pairScales[i/2%len(pairScales)])
		for _, p := range [2][2]Triangle{{a, b}, {b, a}} {
			if got := triTriDist2Bounded(p[0], p[1], seed); got != 0 {
				t.Fatalf("pair %d: primitive returns %v under the smallest seed\n%v\n%v", i, got, p[0], p[1])
			}
			sa, sb := NewTriSoA(1), NewTriSoA(1)
			sa.Set(0, p[0].A, p[0].B, p[0].C)
			sb.Set(0, p[1].A, p[1].B, p[1].C)
			if got := MinDist2Batch(sa, sb, seed); got != 0 {
				t.Fatalf("pair %d: MinDist2Batch returns %v under the smallest seed\n%v\n%v", i, got, p[0], p[1])
			}
			// The degenerate path of the predicate is the distance.
			if (a.IsDegenerate() || b.IsDegenerate()) && !TriTriIntersect(p[0], p[1]) {
				t.Fatalf("pair %d: needle touching at a vertex reported disjoint\n%v\n%v", i, p[0], p[1])
			}
		}
	}
}

// FuzzTriTriDist2Bounded draws a pair of the given kind and scale from seed
// and holds the primitive to its contract under bounds derived from frac: a
// multiple of the true squared distance, and frac itself.
func FuzzTriTriDist2Bounded(f *testing.F) {
	for kind := range pairKinds {
		f.Add(int64(kind)+1, uint8(kind), uint8(0), 0.5)
		f.Add(int64(kind)+100, uint8(kind), uint8(1), 1.0)
		f.Add(int64(kind)+200, uint8(kind), uint8(2), 3.0)
	}
	f.Fuzz(func(t *testing.T, seed int64, kind, scale uint8, frac float64) {
		rng := rand.New(rand.NewSource(seed))
		a, b := genPair(rng, int(kind), pairScales[int(scale)%len(pairScales)])
		d2, sz2 := TriTriDist2(a, b), size2(a, b)
		bounds := boundsAround(rng, d2, sz2)
		if frac >= 0 { // not NaN, not negative
			bounds = append(bounds, frac*sz2)
			if d2 > 1e-10*sz2 || frac <= 0.5 || frac >= 2 {
				bounds = append(bounds, d2*frac)
			}
		}
		checkBounded(t, a, b, bounds, 8)
	})
}

var sinkBounded float64

// BenchmarkTriTriDist2 times the primitive over pairs like those that reach
// it in a distance join — faces of two surfaces a few face sizes apart —
// unbounded, and under a bound that most of them cannot beat, which is what
// the kernels hand it once a running best exists.
func BenchmarkTriTriDist2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1024
	as, bs := make([]Triangle, n), make([]Triangle, n)
	var d2s []float64
	for i := range as {
		as[i] = randTriNear(rng, Vec3{X: 50, Y: 30, Z: 40}, 1)
		bs[i] = randTriNear(rng, Vec3{X: 50 + 2 + 3*rng.Float64(), Y: 30 + 3*rng.Float64(), Z: 40}, 1)
		d2s = append(d2s, TriTriDist2(as[i], bs[i]))
	}
	// A bound one pair in ten beats.
	sorted := slices.Clone(d2s)
	slices.Sort(sorted)
	for _, bc := range []struct {
		name string
		best float64
	}{{"inf", math.Inf(1)}, {"bounded", sorted[n/10]}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBounded = triTriDist2Bounded(as[i%n], bs[i%n], bc.best)
			}
		})
	}
}
