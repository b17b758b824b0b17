package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/index/aabbtree"
	"repro/internal/leakcheck"
	"repro/internal/mesh"
)

// minDist is the unbounded device distance the older tests were written
// against.
func minDist(dev *Device, a, b []geom.Triangle) float64 {
	return math.Sqrt(dev.MinDist2Bounded(geom.SoAFromTriangles(a), geom.SoAFromTriangles(b), math.Inf(1), 0))
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
	if !math.IsInf(dev.MinDist2Bounded(none, tris, math.Inf(1), 0), 1) {
		t.Error("empty unbounded distance not +Inf")
	}
	if got := dev.MinDist2Bounded(tris, none, 2.5, 0); got != 2.5 {
		t.Errorf("empty bounded distance = %v, want the seed back", got)
	}
}

// TestCounters pins how many face pairs one kernel launch covers: whole
// blocks of geom.BlockSize rows of A against all of B, the fewest that span
// at least the batch size, so a kernel gates block against block over its
// whole strip and meets a partial block of A only at A's end.
func TestCounters(t *testing.T) {
	for _, batch := range []int{1, 32, 512, 4096, 10000} {
		dev := New(1, batch)
		for _, bn := range []int{1, 16, 17, 320, 5000} {
			rows := dev.stripRows(bn)
			if rows%geom.BlockSize != 0 || rows*bn < batch || (rows-geom.BlockSize)*bn >= batch {
				t.Errorf("batch %d, |B| = %d: a kernel covers %d rows, want the fewest whole blocks spanning the batch", batch, bn, rows)
			}
		}
		dev.Close()
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
	unbounded := dev.MinDist2Bounded(sa, sb, math.Inf(1), 0)
	if bounded := dev.MinDist2Bounded(sa, sb, unbounded*4, 0); bounded != unbounded {
		t.Errorf("bounded %v != unbounded %v", bounded, unbounded)
	}
	// An upper bound below the true distance is returned unchanged.
	if tight := dev.MinDist2Bounded(sa, sb, unbounded/4, 0); tight != unbounded/4 {
		t.Errorf("tight bound %v came back as %v", unbounded/4, tight)
	}
	// A bound exactly equal to the true squared distance is not beaten
	// (kernels require strictly less), so callers that must find it inflate
	// the bound; the next float up is enough.
	if got := dev.MinDist2Bounded(sa, sb, unbounded, 0); got != unbounded {
		t.Errorf("bound == distance: got %v want %v", got, unbounded)
	}
	if got := dev.MinDist2Bounded(sa, sb, math.Nextafter(unbounded, math.Inf(1)), 0); got != unbounded {
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

// TestCloseIdempotent closes a device twice, then launches on it: the
// second Close must neither panic nor return holding the device's lock.
func TestCloseIdempotent(t *testing.T) {
	a, b, _ := closeFixture()
	dev := New(1, 16)
	dev.Close()
	dev.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		dev.MinDist2Bounded(a, b, math.Inf(1), 0)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a launch after the second Close still blocks after 5 s")
	}
}

// closeFixture is a pair of icospheres 7 apart whose cross product spans
// many kernels at batch size 64, and an overlapping copy of the second.
func closeFixture() (a, b, c *geom.TriSoA) {
	x, y, z := mesh.Icosphere(2, 2), mesh.Icosphere(2, 2), mesh.Icosphere(2, 2)
	y.Translate(geom.V(7, 0, 0))
	z.Translate(geom.V(1, 0, 0))
	return x.SoA(), y.SoA(), z.SoA()
}

// TestClosedDeviceAnswers calls a closed device: its kernels run on the
// caller and give the open device's answers.
func TestClosedDeviceAnswers(t *testing.T) {
	leakcheck.Check(t)
	a, b, c := closeFixture()
	dev := New(2, 64)
	want := dev.MinDist2Bounded(a, b, math.Inf(1), 0)
	dev.Close()
	if got := dev.MinDist2Bounded(a, b, math.Inf(1), 0); got != want {
		t.Errorf("closed device distance %v, open %v", got, want)
	}
	if dev.Intersects(a, b) || !dev.Intersects(a, c) {
		t.Error("closed device intersection verdicts wrong")
	}
}

// TestCloseWhileEvaluating closes a device while goroutines evaluate on it
// (run under -race): every call answers, before and after the close.
func TestCloseWhileEvaluating(t *testing.T) {
	leakcheck.Check(t)
	a, b, _ := closeFixture()
	dev := New(2, 64)
	want := dev.MinDist2Bounded(a, b, math.Inf(1), 0)
	var wg sync.WaitGroup
	errs := make(chan float64, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := dev.MinDist2Bounded(a, b, math.Inf(1), 0); got != want {
					errs <- got
					return
				}
			}
		}()
	}
	dev.Close()
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Errorf("distance %v during close, want %v", got, want)
	}
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
		dev.MinDist2Bounded(sx, sy, math.Inf(1), 0)
	}
}

// layoutsOf packs ts as lane sets that came to be in different ways, each
// with block lanes of its own making: packed by Set, gathered in reverse,
// sliced out of a larger set at offset 5, and laid out in tree order.
func layoutsOf(ts, pad []geom.Triangle) map[string]*geom.TriSoA {
	packed := geom.SoAFromTriangles(ts)
	order := make([]int32, len(ts))
	for i := range order {
		order[i] = int32(len(ts) - 1 - i)
	}
	padded := append(append(append([]geom.Triangle{}, pad[:5]...), ts...), pad[5:]...)
	sliced := geom.SoAFromTriangles(padded).Slice(5, 5+len(ts))
	return map[string]*geom.TriSoA{
		"packed":       packed,
		"gathered":     packed.Gather(order),
		"sliced":       &sliced,
		"tree-ordered": aabbtree.BuildSoA(packed).SoA(),
	}
}

// TestDeviceKernelsMatchPairwiseAcrossBatchSizes runs the per-pair device
// calls over cross products smaller than, equal to, one more than and many
// times the batch size, against the unpruned pairwise loops: A lengths
// around a block (so strips end in whole and partial blocks of A), B
// lengths from none to twenty blocks, every lane layout, and batch sizes
// from one pair to a launch of whole 320-face rows. A distance is asked for
// exactly, seeded a float above the answer, and with a stop bound at the
// answer, which must then still come back.
func TestDeviceKernelsMatchPairwiseAcrossBatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tris := func(n int, cx float64) []geom.Triangle {
		out := make([]geom.Triangle, n)
		for i := range out {
			p := func() geom.Vec3 {
				return geom.V(cx+rng.Float64()*4, rng.Float64()*4, rng.Float64()*4)
			}
			out[i] = geom.Triangle{A: p(), B: p(), C: p()}
		}
		return out
	}
	// 7×9 = 63 face pairs against batch sizes around it; 5×37 = 185 against
	// the same sizes, none of which divides a row of 37 into whole blocks.
	shapes := [][2]int{{7, 9}, {5, 2*geom.BlockSize + 5}}
	for _, an := range []int{1, 15, 16, 17, 33} {
		for _, bn := range []int{0, 1, 16, 17, 320} {
			shapes = append(shapes, [2]int{an, bn})
		}
	}
	var devs []*Device
	for _, batch := range []int{1, 8, 62, 63, 64, 512, 1000, 4096} {
		devs = append(devs, New(3, batch))
	}
	defer func() {
		for _, dev := range devs {
			dev.Close()
		}
	}()
	pad := tris(8, -50)
	for _, shape := range shapes {
		for _, gap := range []float64{0, 3, 9} {
			a, b := tris(shape[0], 0), tris(shape[1], gap)
			wantHit, want2 := false, math.Inf(1)
			for _, x := range a {
				for _, y := range b {
					wantHit = wantHit || geom.TriTriIntersect(x, y)
					want2 = math.Min(want2, geom.TriTriDist2(x, y))
				}
			}
			as, bs := layoutsOf(a, pad), layoutsOf(b, pad)
			for layout, sa := range as {
				sb := bs[layout]
				for _, dev := range devs {
					where := fmt.Sprintf("%v %s batch %d gap %v", shape, layout, dev.batchSize, gap)
					if got := dev.Intersects(sa, sb); got != wantHit {
						t.Errorf("%s: Intersects = %v want %v", where, got, wantHit)
					}
					for _, c := range [][2]float64{{math.Inf(1), 0}, {math.Nextafter(want2, math.Inf(1)), 0}, {math.Inf(1), want2}} {
						if got := dev.MinDist2Bounded(sa, sb, c[0], c[1]); got != want2 {
							t.Errorf("%s seed %v stop %v: MinDist2 = %v want %v", where, c[0], c[1], got, want2)
						}
					}
				}
			}
		}
	}
}
