package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randBoxPair builds two random non-empty boxes from quick-generated floats.
func randBoxPair(v [12]float64) (Box3, Box3) {
	c := func(x float64) float64 { return clampf(x) }
	a := Box3{
		Min: V(c(v[0]), c(v[1]), c(v[2])),
		Max: V(c(v[0])+math.Abs(c(v[3])), c(v[1])+math.Abs(c(v[4])), c(v[2])+math.Abs(c(v[5]))),
	}
	b := Box3{
		Min: V(c(v[6]), c(v[7]), c(v[8])),
		Max: V(c(v[6])+math.Abs(c(v[9])), c(v[7])+math.Abs(c(v[10])), c(v[8])+math.Abs(c(v[11]))),
	}
	return a, b
}

// Property: the box distance bounds nest: MinDist ≤ MaxDist (cross-pair
// distances are a subset of union pairs, whose diameter is the union
// diagonal), and MinDist is zero exactly when the boxes intersect.
func TestBoxDistanceBoundsNest(t *testing.T) {
	f := func(v [12]float64) bool {
		a, b := randBoxPair(v)
		mind := a.MinDist(b)
		if mind > a.MaxDist(b)+1e-9 {
			return false
		}
		if a.Intersects(b) != (mind == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: box distance functions are symmetric.
func TestBoxDistanceSymmetry(t *testing.T) {
	f := func(v [12]float64) bool {
		a, b := randBoxPair(v)
		return math.Abs(a.MinDist(b)-b.MinDist(a)) < 1e-9 &&
			math.Abs(a.MaxDist(b)-b.MaxDist(a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the triangle inequality holds for box MinDist through a shared
// witness point: dist(p, a) + dist(p, b) ≥ MinDist(a, b).
func TestBoxMinDistWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 500; i++ {
		var v [12]float64
		for j := range v {
			v[j] = rng.Float64()*40 - 20
		}
		a, b := randBoxPair(v)
		p := V(rng.Float64()*60-30, rng.Float64()*60-30, rng.Float64()*60-30)
		if a.DistToPoint(p)+b.DistToPoint(p) < a.MinDist(b)-1e-9 {
			t.Fatalf("witness inequality violated: %v + %v < %v",
				a.DistToPoint(p), b.DistToPoint(p), a.MinDist(b))
		}
	}
}

// Property: triangle-triangle distance obeys the triangle inequality via a
// third triangle: d(A,C) ≤ d(A,B) + diam(B) + d(B,C).
func TestTriTriDistTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	diam := func(tr Triangle) float64 {
		return math.Max(tr.A.Dist(tr.B), math.Max(tr.B.Dist(tr.C), tr.C.Dist(tr.A)))
	}
	for i := 0; i < 300; i++ {
		A := randomTriangle(rng, 4)
		B := randomTriangle(rng, 4)
		C := randomTriangle(rng, 4)
		if A.IsDegenerate() || B.IsDegenerate() || C.IsDegenerate() {
			continue
		}
		dac := TriTriDist(A, C)
		bound := TriTriDist(A, B) + diam(B) + TriTriDist(B, C)
		if dac > bound+1e-9 {
			t.Fatalf("triangle inequality violated: %v > %v", dac, bound)
		}
	}
}

// Property: translating both triangles leaves their distance unchanged;
// translating one by t along the line between closest points changes the
// distance by at most |t|.
func TestTriTriDistTranslationStability(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 300; i++ {
		A := randomTriangle(rng, 4)
		B := randomTriangle(rng, 4)
		d := TriTriDist(A, B)

		off := V(rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*10-5)
		A2 := Triangle{A.A.Add(off), A.B.Add(off), A.C.Add(off)}
		B2 := Triangle{B.A.Add(off), B.B.Add(off), B.C.Add(off)}
		if math.Abs(TriTriDist(A2, B2)-d) > 1e-9 {
			t.Fatalf("joint translation changed distance")
		}

		small := V(rng.Float64()*0.2-0.1, rng.Float64()*0.2-0.1, rng.Float64()*0.2-0.1)
		B3 := Triangle{B.A.Add(small), B.B.Add(small), B.C.Add(small)}
		if math.Abs(TriTriDist(A, B3)-d) > small.Len()+1e-9 {
			t.Fatalf("distance moved more than the translation: |Δ|=%v > %v",
				math.Abs(TriTriDist(A, B3)-d), small.Len())
		}
	}
}
