package ppvp

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/mesh"
)

func TestConcurrentDecoders(t *testing.T) {
	// Many goroutines walking their own decoders over one shared
	// Compressed must all reconstruct identical meshes (run under -race in
	// CI to catch section-parse races).
	m := mesh.Icosphere(6, 3)
	c, _, err := Compress(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*mesh.Mesh, c.MaxLOD()+1)
	for lod := range want {
		want[lod], err = c.Decode(lod)
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec, err := c.NewDecoder()
			if err != nil {
				errs <- err.Error()
				return
			}
			for lod := 0; lod <= c.MaxLOD(); lod++ {
				got, err := dec.DecodeTo(lod)
				if err != nil {
					errs <- err.Error()
					return
				}
				if got.NumVertices() != want[lod].NumVertices() || got.NumFaces() != want[lod].NumFaces() {
					errs <- "decode size mismatch"
					return
				}
				for i, v := range want[lod].Vertices {
					if got.Vertices[i] != v {
						errs <- "decode vertex mismatch"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestQuantizerRoundTripProperty(t *testing.T) {
	b := geom.Box3{Min: geom.V(-100, -50, 0), Max: geom.V(100, 50, 30)}
	q := newQuantizer(b, 16)
	cellDiag := q.cell.Len()

	f := func(fx, fy, fz float64) bool {
		// Map arbitrary floats into the box.
		p := geom.V(
			b.Min.X+mod1(fx)*b.Size().X,
			b.Min.Y+mod1(fy)*b.Size().Y,
			b.Min.Z+mod1(fz)*b.Size().Z,
		)
		s := q.snap(p)
		// Snapping moves a point at most one cell diagonal, and snapping
		// is idempotent.
		if s.Dist(p) > cellDiag {
			return false
		}
		return q.snap(s) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mod1(x float64) float64 {
	if x != x || x > 1e300 || x < -1e300 {
		return 0.5
	}
	v := x - float64(int64(x))
	if v < 0 {
		v++
	}
	return v
}

func TestQuantizerDegenerateAxis(t *testing.T) {
	// A flat box (zero Z extent) must not divide by zero.
	b := geom.Box3{Min: geom.V(0, 0, 5), Max: geom.V(10, 10, 5)}
	q := newQuantizer(b, 12)
	p := q.snap(geom.V(3, 4, 5))
	if sum := p.X + p.Y + p.Z; math.IsNaN(sum) || math.IsInf(sum, 0) {
		t.Fatalf("snap produced %v", p)
	}
	if p.Z != 5 {
		t.Errorf("flat axis moved: %v", p)
	}
}
