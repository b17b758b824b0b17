package gpusim

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// minDist is the unbounded device distance the older tests were written
// against.
func minDist(dev *Device, a, b []geom.Triangle) float64 {
	return math.Sqrt(dev.MinDist2Bounded(geom.SoAFromTriangles(a), geom.SoAFromTriangles(b), math.Inf(1)))
}

func TestIntersectsMatchesBrute(t *testing.T) {
	dev := New(4, 64)
	defer dev.Close()
	rng := rand.New(rand.NewSource(1))

	for trial := 0; trial < 30; trial++ {
		a := mesh.Icosphere(3, 1).Triangles()
		b := mesh.Icosphere(3, 1).Triangles()
		shift := geom.V(float64(trial)*0.4, 0, 0)
		for i := range b {
			b[i].A = b[i].A.Add(shift)
			b[i].B = b[i].B.Add(shift)
			b[i].C = b[i].C.Add(shift)
		}
		_ = rng
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
		if got := dev.Intersects(geom.SoAFromTriangles(a), geom.SoAFromTriangles(b)); got != want {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func TestMinDistMatchesBrute(t *testing.T) {
	dev := New(4, 128)
	defer dev.Close()

	for _, shift := range []float64{8, 12, 20} {
		a := mesh.Icosphere(3, 1).Triangles()
		b := mesh.Icosphere(3, 1).Triangles()
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
		if got := minDist(dev, a, b); math.Abs(got-want) > 1e-9 {
			t.Fatalf("shift %v: got %v, want %v", shift, got, want)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	dev := New(2, 0)
	defer dev.Close()
	tris := geom.SoAFromTriangles(mesh.Icosphere(1, 0).Triangles())
	none := geom.SoAFromTriangles(nil)
	if dev.Intersects(none, tris) || dev.Intersects(tris, none) {
		t.Error("empty input intersects")
	}
	if !math.IsInf(dev.MinDist2Bounded(none, tris, math.Inf(1)), 1) {
		t.Error("empty unbounded distance not +Inf")
	}
	if got := dev.MinDist2Bounded(tris, none, 2.5); got != 2.5 {
		t.Errorf("empty bounded distance = %v, want the seed back", got)
	}
}

func TestCounters(t *testing.T) {
	dev := New(2, 32)
	defer dev.Close()
	a := mesh.Icosphere(1, 1).Triangles()
	b := mesh.Icosphere(1, 1).Triangles()
	for i := range b {
		b[i].A.X += 10
		b[i].B.X += 10
		b[i].C.X += 10
	}
	minDist(dev, a, b)
	if dev.KernelLaunches() == 0 {
		t.Error("no kernel launches recorded")
	}
	if got := dev.PairsEvaluated(); got != int64(len(a)*len(b)) {
		t.Errorf("pairs evaluated = %d, want %d", got, len(a)*len(b))
	}
}

func TestBoundedMinDist(t *testing.T) {
	dev := New(2, 64)
	defer dev.Close()
	a := mesh.Icosphere(2, 1).Triangles()
	b := mesh.Icosphere(2, 1).Triangles()
	for i := range b {
		b[i].A.X += 9
		b[i].B.X += 9
		b[i].C.X += 9
	}
	sa, sb := geom.SoAFromTriangles(a), geom.SoAFromTriangles(b)
	unbounded := dev.MinDist2Bounded(sa, sb, math.Inf(1))
	if bounded := dev.MinDist2Bounded(sa, sb, unbounded*4); bounded != unbounded {
		t.Errorf("bounded %v != unbounded %v", bounded, unbounded)
	}
	// An upper bound below the true distance is returned unchanged.
	if tight := dev.MinDist2Bounded(sa, sb, unbounded/4); tight != unbounded/4 {
		t.Errorf("tight bound %v came back as %v", unbounded/4, tight)
	}
	// A bound exactly equal to the true squared distance is not beaten
	// (kernels require strictly less), so callers that must find it inflate
	// the bound; the next float up is enough.
	if got := dev.MinDist2Bounded(sa, sb, unbounded); got != unbounded {
		t.Errorf("bound == distance: got %v want %v", got, unbounded)
	}
	if got := dev.MinDist2Bounded(sa, sb, math.Nextafter(unbounded, math.Inf(1))); got != unbounded {
		t.Errorf("bound just above distance: got %v want exact %v", got, unbounded)
	}
}

func TestConcurrentLaunches(t *testing.T) {
	dev := New(4, 64)
	defer dev.Close()
	a := mesh.Icosphere(2, 2).Triangles()
	b := mesh.Icosphere(2, 2).Triangles()
	for i := range b {
		b[i].A.X += 7
		b[i].B.X += 7
		b[i].C.X += 7
	}
	want := minDist(dev, a, b)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := minDist(dev, a, b); math.Abs(got-want) > 1e-9 {
				errs <- errMismatch
			}
		}()
	}
	wg.Wait()
	close(errs)
	for range errs {
		t.Fatal("concurrent MinDist mismatch")
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "mismatch" }

func TestCloseIdempotent(t *testing.T) {
	dev := New(1, 16)
	dev.Close()
	dev.Close() // must not panic
}

func BenchmarkDeviceMinDist(b *testing.B) {
	dev := New(0, 0)
	defer dev.Close()
	x := mesh.Icosphere(3, 3).Triangles()
	y := mesh.Icosphere(3, 3).Triangles()
	for i := range y {
		y[i].A.X += 10
		y[i].B.X += 10
		y[i].C.X += 10
	}
	sx, sy := geom.SoAFromTriangles(x), geom.SoAFromTriangles(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.MinDist2Bounded(sx, sy, math.Inf(1))
	}
}

// TestDeviceKernelsMatchPairwiseAcrossBatchSizes runs the per-pair device
// calls over cross products that are smaller than, equal to, one more than
// and many times the batch size, against the unpruned pairwise loops. The
// second shape has rows longer than two lane blocks, so kernel launches
// begin and end inside, on and across block boundaries of the column set.
func TestDeviceKernelsMatchPairwiseAcrossBatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tris := func(n int, cx float64) []geom.Triangle {
		out := make([]geom.Triangle, n)
		for i := range out {
			p := func() geom.Vec3 {
				return geom.V(cx+rng.Float64()*4, rng.Float64()*4, rng.Float64()*4)
			}
			out[i] = geom.Tri(p(), p(), p())
		}
		return out
	}
	// 7×9 = 63 face pairs against batch sizes around it; 5×37 = 185 against
	// the same sizes, none of which divides a row of 37 into whole blocks.
	for _, shape := range [][2]int{{7, 9}, {5, 2*geom.BlockSize + 5}} {
		for _, batch := range []int{1, 8, 62, 63, 64, 1000} {
			dev := New(3, batch)
			for _, gap := range []float64{0, 3, 9} {
				a, b := tris(shape[0], 0), tris(shape[1], gap)
				wantHit, want2 := false, math.Inf(1)
				for _, x := range a {
					for _, y := range b {
						wantHit = wantHit || geom.TriTriIntersect(x, y)
						want2 = math.Min(want2, geom.TriTriDist2(x, y))
					}
				}
				sa, sb := geom.SoAFromTriangles(a), geom.SoAFromTriangles(b)
				if got := dev.Intersects(sa, sb); got != wantHit {
					t.Errorf("%v batch %d gap %v: Intersects = %v want %v", shape, batch, gap, got, wantHit)
				}
				if got := dev.MinDist2Bounded(sa, sb, math.Inf(1)); got != want2 {
					t.Errorf("%v batch %d gap %v: MinDist2 = %v want %v", shape, batch, gap, got, want2)
				}
				// Seeded just above the answer, the gates prune from the
				// first pair on and the answer must not move.
				if got := dev.MinDist2Bounded(sa, sb, math.Nextafter(want2, math.Inf(1))); got != want2 {
					t.Errorf("%v batch %d gap %v: MinDist2 under a tight bound = %v want %v", shape, batch, gap, got, want2)
				}
			}
			dev.Close()
		}
	}
}
