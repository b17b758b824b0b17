package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randTriNear returns a random triangle whose vertices lie within spread of
// center — used to generate near-miss/near-hit pairs where box pruning and
// the exact kernels genuinely disagree unless the pruning is conservative.
func randTriNear(rng *rand.Rand, center Vec3, spread float64) Triangle {
	p := func() Vec3 {
		return Vec3{
			center.X + (rng.Float64()*2-1)*spread,
			center.Y + (rng.Float64()*2-1)*spread,
			center.Z + (rng.Float64()*2-1)*spread,
		}
	}
	return Triangle{A: p(), B: p(), C: p()}
}

func randSoA(rng *rand.Rand, n int, center Vec3, spread float64) ([]Triangle, *TriSoA) {
	ts := make([]Triangle, n)
	for i := range ts {
		ts[i] = randTriNear(rng, center, spread)
		if rng.Intn(8) == 0 {
			// Mix in degenerate triangles: repeated vertex or collinear.
			switch rng.Intn(3) {
			case 0:
				ts[i].B = ts[i].A
			case 1:
				ts[i].C = ts[i].A
			case 2:
				ts[i].C = ts[i].A.Add(ts[i].B.Sub(ts[i].A).Mul(0.5))
			}
		}
	}
	return ts, SoAFromTriangles(ts)
}

func TestSoARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts, s := randSoA(rng, 37, Vec3{}, 5)
	if s.Len() != len(ts) {
		t.Fatalf("Len=%d want %d", s.Len(), len(ts))
	}
	for i, want := range ts {
		if got := s.At(i); got != want {
			t.Fatalf("At(%d)=%v want %v", i, got, want)
		}
		b := want.Bounds()
		if s.MinX[i] != b.Min.X || s.MinY[i] != b.Min.Y || s.MinZ[i] != b.Min.Z ||
			s.MaxX[i] != b.Max.X || s.MaxY[i] != b.Max.Y || s.MaxZ[i] != b.Max.Z {
			t.Fatalf("box lanes for %d disagree with Bounds()", i)
		}
	}
}

// TestSignedZeroBoxesGateAlike pins what the plain compares of Set and
// growBlock change: of +0 and −0 a box bound keeps the first where
// math.Min/Max pick by sign. Over triangles whose coordinates mix ±0, the
// boxes built both ways are equal as numbers, and every gate — triangle,
// block and row box against triangle and block box, by gap and by
// disjointness — decides each pair alike, so the kernels return the same
// bits.
func TestSignedZeroBoxesGateAlike(t *testing.T) {
	coords := []float64{0, math.Copysign(0, -1), 1, -1, 0.5}
	rng := rand.New(rand.NewSource(9))
	signBits := 0
	// both packs ts by Set, and again with every box by math.Min/Max.
	both := func(n int) (plain, signed *TriSoA) {
		ts := make([]Triangle, n)
		c := func() float64 { return coords[rng.Intn(len(coords))] }
		for i := range ts {
			ts[i] = Triangle{Vec3{c(), c(), c()}, Vec3{c(), c(), c()}, Vec3{c(), c(), c()}}
		}
		plain, signed = SoAFromTriangles(ts), SoAFromTriangles(ts)
		lanes := func(s *TriSoA) [4][3][]float64 {
			return [4][3][]float64{{s.MinX, s.MinY, s.MinZ}, {s.MaxX, s.MaxY, s.MaxZ},
				{s.BlkMinX, s.BlkMinY, s.BlkMinZ}, {s.BlkMaxX, s.BlkMaxY, s.BlkMaxZ}}
		}
		p, s := lanes(plain), lanes(signed)
		for ax := 0; ax < 3; ax++ {
			for k := range s[2][ax] {
				s[2][ax][k], s[3][ax][k] = math.Inf(1), math.Inf(-1)
			}
			for i, tr := range ts {
				a, b, c := tr.A.Component(ax), tr.B.Component(ax), tr.C.Component(ax)
				s[0][ax][i], s[1][ax][i] = math.Min(a, math.Min(b, c)), math.Max(a, math.Max(b, c))
				k := i >> blockShift
				s[2][ax][k], s[3][ax][k] = math.Min(s[2][ax][k], s[0][ax][i]), math.Max(s[3][ax][k], s[1][ax][i])
			}
			for l := range p {
				for i := range p[l][ax] {
					if p[l][ax][i] != s[l][ax][i] {
						t.Fatalf("lane %d axis %d [%d]: %v by plain compares, %v by math.Min/Max", l, ax, i, p[l][ax][i], s[l][ax][i])
					}
					if math.Signbit(p[l][ax][i]) != math.Signbit(s[l][ax][i]) {
						signBits++
					}
				}
			}
		}
		return plain, signed
	}
	pa, sa := both(37)
	pb, sb := both(45)
	if signBits == 0 {
		t.Fatal("no box bound differs in the sign of zero; the test is vacuous")
	}

	// boxes lists, for one set, its triangle boxes and its block boxes as
	// (min, max) lanes per axis.
	boxes := func(s *TriSoA) [2][3][2][]float64 {
		return [2][3][2][]float64{
			{{s.MinX, s.MaxX}, {s.MinY, s.MaxY}, {s.MinZ, s.MaxZ}},
			{{s.BlkMinX, s.BlkMaxX}, {s.BlkMinY, s.BlkMaxY}, {s.BlkMinZ, s.BlkMaxZ}},
		}
	}
	pA, sA, pB, sB := boxes(pa), boxes(sa), boxes(pb), boxes(sb)
	for la := range pA {
		for lb := range pB {
			for ax := 0; ax < 3; ax++ {
				for i := range pA[la][ax][0] {
					for j := range pB[lb][ax][0] {
						p0, p1, q0, q1 := pA[la][ax][0][i], pA[la][ax][1][i], pB[lb][ax][0][j], pB[lb][ax][1][j]
						s0, s1, r0, r1 := sA[la][ax][0][i], sA[la][ax][1][i], sB[lb][ax][0][j], sB[lb][ax][1][j]
						if axisGap2(p0, p1, q0, q1) != axisGap2(s0, s1, r0, r1) || axisDisjoint(p0, p1, q0, q1) != axisDisjoint(s0, s1, r0, r1) {
							t.Fatalf("levels %d×%d axis %d boxes %d×%d: the gates decide [%v,%v]×[%v,%v] unlike [%v,%v]×[%v,%v]",
								la, lb, ax, i, j, p0, p1, q0, q1, s0, s1, r0, r1)
						}
					}
				}
			}
		}
	}

	total := pa.Len() * pb.Len()
	if IntersectsBatch(pa, pb) != IntersectsBatch(sa, sb) {
		t.Error("IntersectsBatch differs between the two box builds")
	}
	for _, r := range [][2]int{{0, total}, {7, total - 50}, {45*17 + 3, 45*33 + 1}} {
		if p, s := MinDist2BatchRange(pa, pb, r[0], r[1], math.Inf(1), 0), MinDist2BatchRange(sa, sb, r[0], r[1], math.Inf(1), 0); math.Float64bits(p) != math.Float64bits(s) {
			t.Errorf("[%d,%d): MinDist2BatchRange %v with plain-compare boxes, %v with math.Min/Max boxes", r[0], r[1], p, s)
		}
	}
}

// bruteIntersects is the reference pairwise loop the batch kernel must match.
func bruteIntersects(as, bs []Triangle) bool {
	for _, ta := range as {
		for _, tb := range bs {
			if TriTriIntersect(ta, tb) {
				return true
			}
		}
	}
	return false
}

func bruteMinDist2(as, bs []Triangle, best float64) float64 {
	for _, ta := range as {
		for _, tb := range bs {
			if d2 := TriTriDist2(ta, tb); d2 < best {
				best = d2
			}
		}
	}
	return best
}

func TestIntersectsBatchMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 200; round++ {
		// Two clusters whose separation shrinks with the round index, so the
		// suite sweeps from clearly-separated through touching to overlapping.
		sep := 4.0 * (1 - float64(round)/150.0)
		as, sa := randSoA(rng, 1+rng.Intn(12), Vec3{}, 2)
		bs, sb := randSoA(rng, 1+rng.Intn(12), Vec3{X: sep}, 2)
		want := bruteIntersects(as, bs)
		if got := IntersectsBatch(sa, sb); got != want {
			t.Fatalf("round %d: IntersectsBatch=%v pairwise=%v", round, got, want)
		}
	}
}

func TestMinDist2BatchMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		sep := 6.0 * (1 - float64(round)/150.0)
		as, sa := randSoA(rng, 1+rng.Intn(10), Vec3{}, 2)
		bs, sb := randSoA(rng, 1+rng.Intn(10), Vec3{X: sep, Y: sep / 2}, 2)

		// Exact minimum (infinite seed) must be bit-identical: both paths run
		// the same TriTriDist2 on every pair that can be the minimum.
		want := bruteMinDist2(as, bs, math.Inf(1))
		if got := MinDist2Batch(sa, sb, math.Inf(1)); got != want {
			t.Fatalf("round %d: exact MinDist2Batch=%v pairwise=%v", round, got, want)
		}

		// Bound-seeded: when the true minimum beats the bound the value must
		// be exact; otherwise the seed comes back unchanged.
		for _, upper2 := range []float64{0, want * 0.5, want, want * 1.5, want + 1} {
			got := MinDist2Batch(sa, sb, upper2)
			if want < upper2 {
				if got != want {
					t.Fatalf("round %d upper2=%v: got %v want exact %v", round, upper2, got, want)
				}
			} else if got != upper2 {
				t.Fatalf("round %d upper2=%v: got %v want seed back", round, upper2, got)
			}
		}
	}
}

// TestBatchRangeCoversCrossProduct splits the pair index space at arbitrary
// points, the way the gpusim device launches kernels, and checks the split
// scan agrees with the whole scan.
func TestBatchRangeCoversCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 100; round++ {
		_, sa := randSoA(rng, 1+rng.Intn(8), Vec3{}, 2)
		_, sb := randSoA(rng, 1+rng.Intn(8), Vec3{X: rng.Float64() * 5}, 2)
		total := sa.Len() * sb.Len()
		cut := rng.Intn(total + 1)

		wantHit := IntersectsBatch(sa, sb)
		gotHit := IntersectsBatchRange(sa, sb, 0, cut) || IntersectsBatchRange(sa, sb, cut, total)
		if gotHit != wantHit {
			t.Fatalf("round %d cut=%d: split intersect %v want %v", round, cut, gotHit, wantHit)
		}

		wantD := MinDist2Batch(sa, sb, math.Inf(1))
		d1 := MinDist2BatchRange(sa, sb, 0, cut, math.Inf(1), 0)
		gotD := MinDist2BatchRange(sa, sb, cut, total, d1, 0)
		if gotD != wantD {
			t.Fatalf("round %d cut=%d: split dist %v want %v", round, cut, gotD, wantD)
		}
	}
}

func TestBatchEmptyInputs(t *testing.T) {
	_, sa := randSoA(rand.New(rand.NewSource(5)), 3, Vec3{}, 1)
	empty := SoAFromTriangles(nil)
	if IntersectsBatch(sa, empty) || IntersectsBatch(empty, sa) || IntersectsBatch(empty, empty) {
		t.Fatal("empty SoA must never intersect")
	}
	if got := MinDist2Batch(sa, empty, 42); got != 42 {
		t.Fatalf("empty b: got %v want seed", got)
	}
	if got := MinDist2Batch(empty, sa, 42); got != 42 {
		t.Fatalf("empty a: got %v want seed", got)
	}
	// Three triangles: 15 lanes of three, plus one block box.
	if empty.Bytes() != 0 || sa.Bytes() != 15*3*8+6*8 {
		t.Fatalf("Bytes: empty=%d sa=%d", empty.Bytes(), sa.Bytes())
	}
}
