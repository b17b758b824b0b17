package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestTriangleBasics(t *testing.T) {
	tr := Triangle{V(0, 0, 0), V(1, 0, 0), V(0, 1, 0)}
	if got := tr.Normal(); got != V(0, 0, 1) {
		t.Errorf("Normal = %v, want twice the area along +Z", got)
	}
	if got := tr.UnitNormal(); got != V(0, 0, 1) {
		t.Errorf("UnitNormal = %v, want +Z", got)
	}
	want := V(1.0/3, 1.0/3, 0)
	if got := tr.Centroid(); !got.ApproxEqual(want, 1e-15) {
		t.Errorf("Centroid = %v, want %v", got, want)
	}
	b := tr.Bounds()
	if b.Min != V(0, 0, 0) || b.Max != V(1, 1, 0) {
		t.Errorf("Bounds = %v", b)
	}
	for i := 0; i < 3; i++ {
		if tr.Vertex(i) != [3]Vec3{tr.A, tr.B, tr.C}[i] {
			t.Errorf("Vertex(%d) wrong", i)
		}
	}
}

func TestTriangleDegenerate(t *testing.T) {
	if (Triangle{V(0, 0, 0), V(1, 0, 0), V(0, 1, 0)}).IsDegenerate() {
		t.Error("proper triangle reported degenerate")
	}
	if !(Triangle{V(0, 0, 0), V(1, 0, 0), V(2, 0, 0)}).IsDegenerate() {
		t.Error("collinear triangle not reported degenerate")
	}
	if !(Triangle{V(1, 1, 1), V(1, 1, 1), V(1, 1, 1)}).IsDegenerate() {
		t.Error("point triangle not reported degenerate")
	}
}

func TestClosestPointToPoint(t *testing.T) {
	tr := Triangle{V(0, 0, 0), V(2, 0, 0), V(0, 2, 0)}
	cases := []struct {
		p, want Vec3
	}{
		{V(0.5, 0.5, 1), V(0.5, 0.5, 0)},     // above the interior
		{V(-1, -1, 0), V(0, 0, 0)},           // vertex A region
		{V(3, -1, 0), V(2, 0, 0)},            // vertex B region
		{V(-1, 3, 0), V(0, 2, 0)},            // vertex C region
		{V(1, -1, 0), V(1, 0, 0)},            // edge AB region
		{V(-1, 1, 0), V(0, 1, 0)},            // edge AC region
		{V(2, 2, 0), V(1, 1, 0)},             // edge BC region
		{V(0.25, 0.25, 0), V(0.25, 0.25, 0)}, // on the face
	}
	for _, c := range cases {
		if got := tr.ClosestPointToPoint(c.p); !got.ApproxEqual(c.want, 1e-12) {
			t.Errorf("ClosestPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := tr.DistToPoint(V(0.5, 0.5, 3)); got != 3 {
		t.Errorf("DistToPoint = %v, want 3", got)
	}
}

// Property: the closest point returned is on the triangle and no sampled
// barycentric point is closer.
func TestClosestPointIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		tr := randomTriangle(rng, 5)
		if tr.IsDegenerate() {
			continue
		}
		p := V(rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*10-5)
		cp := tr.ClosestPointToPoint(p)
		best := cp.Dist(p)
		for j := 0; j < 50; j++ {
			u := rng.Float64()
			v := rng.Float64() * (1 - u)
			q := tr.A.Mul(1 - u - v).Add(tr.B.Mul(u)).Add(tr.C.Mul(v))
			if d := q.Dist(p); d < best-1e-9 {
				t.Fatalf("sampled point closer: %v < %v", d, best)
			}
		}
	}
}

func TestSegmentClosestPoints(t *testing.T) {
	// Crossing segments (in projection), distance 1 apart in Z.
	s1 := Segment{V(-1, 0, 0), V(1, 0, 0)}
	s2 := Segment{V(0, -1, 1), V(0, 1, 1)}
	if got := s1.Dist(s2); math.Abs(got-1) > 1e-12 {
		t.Errorf("Dist = %v, want 1", got)
	}

	// Parallel segments.
	s3 := Segment{V(0, 0, 0), V(1, 0, 0)}
	s4 := Segment{V(0, 2, 0), V(1, 2, 0)}
	if got := s3.Dist(s4); math.Abs(got-2) > 1e-12 {
		t.Errorf("parallel Dist = %v, want 2", got)
	}

	// Collinear, disjoint.
	s5 := Segment{V(0, 0, 0), V(1, 0, 0)}
	s6 := Segment{V(3, 0, 0), V(4, 0, 0)}
	if got := s5.Dist(s6); math.Abs(got-2) > 1e-12 {
		t.Errorf("collinear Dist = %v, want 2", got)
	}

	// Degenerate: both are points.
	s7 := Segment{V(0, 0, 0), V(0, 0, 0)}
	s8 := Segment{V(0, 3, 4), V(0, 3, 4)}
	if got := s7.Dist(s8); got != 5 {
		t.Errorf("point-point Dist = %v, want 5", got)
	}

	// One degenerate.
	s9 := Segment{V(0.5, 5, 0), V(0.5, 5, 0)}
	if got := s3.Dist(s9); math.Abs(got-5) > 1e-12 {
		t.Errorf("point-segment Dist = %v, want 5", got)
	}
}

// Property: segment distance is symmetric and the returned points lie on
// their segments.
func TestSegmentDistSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randSeg := func() Segment {
		return Segment{
			V(rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*10-5),
			V(rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*10-5),
		}
	}
	for i := 0; i < 500; i++ {
		a, b := randSeg(), randSeg()
		d1 := a.Dist(b)
		d2 := b.Dist(a)
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("asymmetric: %v vs %v", d1, d2)
		}
		// No sampled pair should be closer.
		for j := 0; j < 30; j++ {
			p := a.P.Lerp(a.Q, rng.Float64())
			q := b.P.Lerp(b.Q, rng.Float64())
			if d := p.Dist(q); d < d1-1e-9 {
				t.Fatalf("sampled pair closer: %v < %v", d, d1)
			}
		}
	}
}

func randomTriangle(rng *rand.Rand, scale float64) Triangle {
	r := func() Vec3 {
		return V(rng.Float64()*2*scale-scale, rng.Float64()*2*scale-scale, rng.Float64()*2*scale-scale)
	}
	return Triangle{r(), r(), r()}
}
