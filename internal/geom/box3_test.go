package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func box(x0, y0, z0, x1, y1, z1 float64) Box3 {
	return Box3{Min: V(x0, y0, z0), Max: V(x1, y1, z1)}
}

func TestEmptyBox(t *testing.T) {
	e := EmptyBox()
	if !e.IsEmpty() {
		t.Fatal("EmptyBox not empty")
	}
	if e.Volume() != 0 || e.Diagonal() != 0 {
		t.Error("empty box should have zero measures")
	}
	b := e.ExtendPoint(V(1, 2, 3))
	if b.IsEmpty() || b.Min != V(1, 2, 3) || b.Max != V(1, 2, 3) {
		t.Errorf("ExtendPoint from empty = %v", b)
	}
}

func TestBoxOf(t *testing.T) {
	b := BoxOf(V(1, 5, 2), V(-1, 0, 4), V(0, 3, 3))
	if b.Min != V(-1, 0, 2) || b.Max != V(1, 5, 4) {
		t.Errorf("BoxOf = %v", b)
	}
}

func TestBoxUnionIntersects(t *testing.T) {
	a := box(0, 0, 0, 1, 1, 1)
	b := box(2, 2, 2, 3, 3, 3)
	c := box(0.5, 0.5, 0.5, 2.5, 2.5, 2.5)

	if a.Intersects(b) {
		t.Error("disjoint boxes reported intersecting")
	}
	if !a.Intersects(c) || !b.Intersects(c) {
		t.Error("overlapping boxes reported disjoint")
	}
	// Touching counts as intersecting.
	d := box(1, 0, 0, 2, 1, 1)
	if !a.Intersects(d) {
		t.Error("touching boxes reported disjoint")
	}

	u := a.Union(b)
	if u.Min != V(0, 0, 0) || u.Max != V(3, 3, 3) {
		t.Errorf("Union = %v", u)
	}
	if got := a.Union(EmptyBox()); got != a {
		t.Errorf("Union with empty = %v", got)
	}
	if got := EmptyBox().Union(a); got != a {
		t.Errorf("empty Union a = %v", got)
	}
}

func TestBoxContains(t *testing.T) {
	a := box(0, 0, 0, 10, 10, 10)
	b := box(1, 1, 1, 2, 2, 2)
	if !a.Contains(b) {
		t.Error("containment missed")
	}
	if b.Contains(a) {
		t.Error("reverse containment reported")
	}
	if !a.Contains(a) {
		t.Error("box should contain itself")
	}
	if !a.ContainsPoint(V(5, 5, 5)) || a.ContainsPoint(V(11, 5, 5)) {
		t.Error("ContainsPoint wrong")
	}
}

func TestBoxMeasures(t *testing.T) {
	b := box(0, 0, 0, 2, 3, 4)
	if got := b.Volume(); got != 24 {
		t.Errorf("Volume = %v", got)
	}
	if got := b.Diagonal(); math.Abs(got-math.Sqrt(4+9+16)) > 1e-12 {
		t.Errorf("Diagonal = %v", got)
	}
	if got := b.Center(); got != V(1, 1.5, 2) {
		t.Errorf("Center = %v", got)
	}
	if got := b.LongestAxis(); got != 2 {
		t.Errorf("LongestAxis = %v", got)
	}
}

func TestBoxMinDist(t *testing.T) {
	a := box(0, 0, 0, 1, 1, 1)
	b := box(4, 0, 0, 5, 1, 1)
	if got := a.MinDist(b); got != 3 {
		t.Errorf("MinDist along axis = %v, want 3", got)
	}
	c := box(4, 4, 0, 5, 5, 1)
	if got := a.MinDist(c); math.Abs(got-3*math.Sqrt2) > 1e-12 {
		t.Errorf("MinDist diagonal = %v, want %v", got, 3*math.Sqrt2)
	}
	// Overlapping boxes: distance zero.
	d := box(0.5, 0.5, 0.5, 2, 2, 2)
	if got := a.MinDist(d); got != 0 {
		t.Errorf("MinDist overlap = %v, want 0", got)
	}
	// Symmetry.
	if a.MinDist(c) != c.MinDist(a) {
		t.Error("MinDist not symmetric")
	}
}

func TestBoxMaxDist(t *testing.T) {
	a := box(0, 0, 0, 1, 1, 1)
	b := box(3, 0, 0, 4, 1, 1)
	want := math.Sqrt(16 + 1 + 1) // diagonal of union [0..4]×[0..1]×[0..1]
	if got := a.MaxDist(b); math.Abs(got-want) > 1e-12 {
		t.Errorf("MaxDist = %v, want %v", got, want)
	}
	// MINDIST ≤ MAXDIST always.
	if a.MinDist(b) > a.MaxDist(b) {
		t.Error("MinDist > MaxDist")
	}
}

func TestBoxClosestPoint(t *testing.T) {
	b := box(0, 0, 0, 1, 1, 1)
	cases := []struct{ p, want Vec3 }{
		{V(0.5, 0.5, 0.5), V(0.5, 0.5, 0.5)}, // inside
		{V(2, 0.5, 0.5), V(1, 0.5, 0.5)},     // beyond +X face
		{V(-1, -1, -1), V(0, 0, 0)},          // beyond corner
	}
	for _, c := range cases {
		if got := b.ClosestPoint(c.p); got != c.want {
			t.Errorf("ClosestPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := b.DistToPoint(V(3, 0.5, 0.5)); got != 2 {
		t.Errorf("DistToPoint = %v, want 2", got)
	}
}

func TestBoxCorners(t *testing.T) {
	b := box(0, 0, 0, 1, 2, 3)
	seen := map[Vec3]bool{}
	for i := 0; i < 8; i++ {
		c := b.Corner(i)
		if !b.ContainsPoint(c) {
			t.Errorf("corner %d (%v) outside box", i, c)
		}
		seen[c] = true
	}
	if len(seen) != 8 {
		t.Errorf("expected 8 distinct corners, got %d", len(seen))
	}
}

func TestBoxExpand(t *testing.T) {
	b := box(0, 0, 0, 1, 1, 1).Expand(0.5)
	if b.Min != V(-0.5, -0.5, -0.5) || b.Max != V(1.5, 1.5, 1.5) {
		t.Errorf("Expand = %v", b)
	}
}

// Property: MinDist between random boxes equals the brute-force min over
// the corner-sampled closest points (we verify MinDist ≤ sampled distances
// and MinDist achieves it via ClosestPoint on corner of one box).
func TestBoxMinDistProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randBox := func() Box3 {
		p := V(rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*10-5)
		q := p.Add(V(rng.Float64()*3, rng.Float64()*3, rng.Float64()*3))
		return Box3{Min: p, Max: q}
	}
	for i := 0; i < 500; i++ {
		a, b := randBox(), randBox()
		md := a.MinDist(b)
		// Sample random point pairs and verify no pair gets closer than MinDist.
		for j := 0; j < 20; j++ {
			pa := a.Min.Add(V(rng.Float64()*a.Size().X, rng.Float64()*a.Size().Y, rng.Float64()*a.Size().Z))
			pb := b.Min.Add(V(rng.Float64()*b.Size().X, rng.Float64()*b.Size().Y, rng.Float64()*b.Size().Z))
			if d := pa.Dist(pb); d < md-1e-9 {
				t.Fatalf("point pair dist %v < MinDist %v", d, md)
			}
			if d := pa.Dist(pb); d > a.MaxDist(b)+1e-9 {
				t.Fatalf("point pair dist %v > MaxDist %v", d, a.MaxDist(b))
			}
		}
	}
}

// Property: union contains both operands; intersects is symmetric.
func TestBoxAlgebraProperties(t *testing.T) {
	gen := func(vals []float64) Box3 {
		p := V(clampf(vals[0]), clampf(vals[1]), clampf(vals[2]))
		q := V(clampf(vals[3]), clampf(vals[4]), clampf(vals[5]))
		return Box3{Min: p.Min(q), Max: p.Max(q)}
	}
	f := func(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5 float64) bool {
		a := gen([]float64{a0, a1, a2, a3, a4, a5})
		b := gen([]float64{b0, b1, b2, b3, b4, b5})
		u := a.Union(b)
		if !u.Contains(a) || !u.Contains(b) {
			return false
		}
		return a.Intersects(b) == b.Intersects(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
