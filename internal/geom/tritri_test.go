package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestTriTriIntersectBasic(t *testing.T) {
	// Two triangles crossing like a plus sign.
	t1 := Triangle{V(-1, 0, -1), V(1, 0, -1), V(0, 0, 1)}
	t2 := Triangle{V(0, -1, -1), V(0, 1, -1), V(0, 0, 1)}
	if !TriTriIntersect(t1, t2) {
		t.Error("crossing triangles reported disjoint")
	}

	// Far apart.
	t3 := Triangle{V(10, 10, 10), V(11, 10, 10), V(10, 11, 10)}
	if TriTriIntersect(t1, t3) {
		t.Error("distant triangles reported intersecting")
	}

	// Parallel planes, no intersection.
	t4 := Triangle{V(-1, 0, 0), V(1, 0, 0), V(0, 1, 0)}
	t5 := Triangle{V(-1, 0, 1), V(1, 0, 1), V(0, 1, 1)}
	if TriTriIntersect(t4, t5) {
		t.Error("parallel offset triangles reported intersecting")
	}
}

func TestTriTriIntersectCoplanar(t *testing.T) {
	// Overlapping coplanar triangles.
	t1 := Triangle{V(0, 0, 0), V(4, 0, 0), V(0, 4, 0)}
	t2 := Triangle{V(1, 1, 0), V(5, 1, 0), V(1, 5, 0)}
	if !TriTriIntersect(t1, t2) {
		t.Error("overlapping coplanar triangles reported disjoint")
	}

	// Coplanar, one contains the other.
	t3 := Triangle{V(1, 1, 0), V(2, 1, 0), V(1, 2, 0)}
	if !TriTriIntersect(t1, t3) {
		t.Error("contained coplanar triangle reported disjoint")
	}

	// Coplanar, disjoint.
	t4 := Triangle{V(10, 10, 0), V(12, 10, 0), V(10, 12, 0)}
	if TriTriIntersect(t1, t4) {
		t.Error("disjoint coplanar triangles reported intersecting")
	}
}

func TestTriTriIntersectTouching(t *testing.T) {
	// Sharing exactly one vertex.
	t1 := Triangle{V(0, 0, 0), V(1, 0, 0), V(0, 1, 0)}
	t2 := Triangle{V(0, 0, 0), V(-1, 0, 1), V(0, -1, 1)}
	if !TriTriIntersect(t1, t2) {
		t.Error("vertex-touching triangles reported disjoint")
	}
	// One vertex of t2 piercing t1's plane through its interior.
	t3 := Triangle{V(0.2, 0.2, -1), V(0.3, 0.2, 1), V(0.2, 0.3, 1)}
	if !TriTriIntersect(t1, t3) {
		t.Error("piercing triangle reported disjoint")
	}
}

func TestTriTriIntersectSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a := randomTriangle(rng, 2)
		b := randomTriangle(rng, 2)
		if a.IsDegenerate() || b.IsDegenerate() {
			continue
		}
		if TriTriIntersect(a, b) != TriTriIntersect(b, a) {
			t.Fatalf("asymmetric result for %v vs %v", a, b)
		}
	}
}

func TestTriTriDistBasic(t *testing.T) {
	t1 := Triangle{V(0, 0, 0), V(1, 0, 0), V(0, 1, 0)}
	t2 := Triangle{V(0, 0, 2), V(1, 0, 2), V(0, 1, 2)}
	if got := TriTriDist(t1, t2); math.Abs(got-2) > 1e-12 {
		t.Errorf("parallel dist = %v, want 2", got)
	}

	// Intersecting triangles have zero distance.
	t3 := Triangle{V(0.2, 0.2, -1), V(0.3, 0.2, 1), V(0.2, 0.3, 1)}
	if got := TriTriDist(t1, t3); got != 0 {
		t.Errorf("intersecting dist = %v, want 0", got)
	}

	// Closest features are edges.
	t4 := Triangle{V(2, -1, 1), V(2, 1, 1), V(3, 0, 1)}
	want := math.Sqrt(1 + 1) // from edge x=1 side of t1 to vertex region (2,0,1)
	got := TriTriDist(t1, t4)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("edge-edge dist = %v, want %v", got, want)
	}
}

// Property: distance is symmetric, non-negative, and no sampled point pair
// is closer than the reported distance.
func TestTriTriDistProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		a := randomTriangle(rng, 3)
		b := randomTriangle(rng, 3)
		if a.IsDegenerate() || b.IsDegenerate() {
			continue
		}
		d := TriTriDist(a, b)
		if d < 0 {
			t.Fatal("negative distance")
		}
		if math.Abs(d-TriTriDist(b, a)) > 1e-9 {
			t.Fatal("asymmetric distance")
		}
		for j := 0; j < 40; j++ {
			u := rng.Float64()
			v := rng.Float64() * (1 - u)
			p := a.A.Mul(1 - u - v).Add(a.B.Mul(u)).Add(a.C.Mul(v))
			u2 := rng.Float64()
			v2 := rng.Float64() * (1 - u2)
			q := b.A.Mul(1 - u2 - v2).Add(b.B.Mul(u2)).Add(b.C.Mul(v2))
			if got := p.Dist(q); got < d-1e-9 {
				t.Fatalf("sampled pair dist %v < reported %v", got, d)
			}
		}
	}
}

// Property: separated triangles (positive distance) must not be reported as
// intersecting, and the distance must drop to 0 when we translate one
// triangle onto the other.
func TestTriTriDistConsistentWithIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		a := randomTriangle(rng, 2)
		b := randomTriangle(rng, 2)
		if a.IsDegenerate() || b.IsDegenerate() {
			continue
		}
		inter := TriTriIntersect(a, b)
		d := TriTriDist(a, b)
		if inter && d != 0 {
			t.Fatalf("intersecting but dist=%v", d)
		}
		if !inter && d <= 0 {
			t.Fatalf("disjoint but dist=%v", d)
		}
	}
}

func BenchmarkTriTriIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tris := make([]Triangle, 256)
	for i := range tris {
		tris[i] = randomTriangle(rng, 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TriTriIntersect(tris[i%256], tris[(i+7)%256])
	}
}
