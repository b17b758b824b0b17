package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/mesh"
)

// probeFixture is the dataset the probe fuzz targets query (buildPair's
// first dataset), built once per process, with its objects decoded at the
// top LOD for the brute-force oracles.
type probeFixture struct {
	e      *Engine
	d      *Dataset
	meshes []*mesh.Mesh
	space  geom.Box3
}

var probeData = sync.OnceValues(func() (*probeFixture, error) {
	e := NewEngine(EngineOptions{CacheBytes: 64 << 20, Workers: 4})
	d, err := e.BuildDataset("nucleiA", datagen.Nuclei(pairGen), fastDatasetOptions())
	if err != nil {
		return nil, err
	}
	f := &probeFixture{e: e, d: d, meshes: make([]*mesh.Mesh, d.Len()), space: d.Tree().Bounds()}
	for i := range f.meshes {
		if f.meshes[i], err = d.Tileset.Object(int64(i)).Comp.Decode(d.MaxLOD()); err != nil {
			return nil, err
		}
	}
	return f, nil
})

func probeFixtureFor(tb testing.TB) *probeFixture {
	tb.Helper()
	f, err := probeData()
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// randIn draws a point uniformly from box.
func randIn(rng *rand.Rand, box geom.Box3) geom.Vec3 {
	return geom.V(
		box.Min.X+rng.Float64()*box.Size().X,
		box.Min.Y+rng.Float64()*box.Size().Y,
		box.Min.Z+rng.Float64()*box.Size().Z,
	)
}

// checkIDs fails unless got equals want, under label.
func checkIDs(t *testing.T, label string, got, want []int64) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
}

// FuzzContainingObjects checks point containment under both paradigms
// against a brute-force scan of the top-LOD meshes. The seeds are 150
// uniform points of the dataset's space.
func FuzzContainingObjects(f *testing.F) {
	fx := probeFixtureFor(f)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 150; i++ {
		p := randIn(rng, fx.space)
		f.Add(p.X, p.Y, p.Z)
	}
	f.Fuzz(func(t *testing.T, x, y, z float64) {
		p := geom.V(x, y, z)
		var want []int64
		for j, m := range fx.meshes {
			if m.ContainsPoint(p) {
				want = append(want, int64(j))
			}
		}
		for _, paradigm := range []Paradigm{FR, FPR} {
			got, stats, err := fx.e.ContainingObjects(context.Background(), fx.d, p, QueryOptions{Paradigm: paradigm, Accel: AABB})
			if err != nil {
				t.Fatal(err)
			}
			if stats == nil {
				t.Fatal("nil stats")
			}
			checkIDs(t, fmt.Sprintf("%v point %v", paradigm, p), got, want)
		}
	})
}

func TestContainingObjectsEarlySettle(t *testing.T) {
	// A point at an object's centroid is inside every LOD, so FPR settles
	// it at LOD 0.
	e := testEngine(t)
	a, _ := buildPair(t, e)
	m, err := a.Tileset.Object(0).Comp.Decode(a.MaxLOD())
	if err != nil {
		t.Fatal(err)
	}
	p := m.Centroid()
	if !m.ContainsPoint(p) {
		t.Skip("centroid outside the object (unusual shape)")
	}
	got, stats, err := e.ContainingObjects(context.Background(), a, p, QueryOptions{Paradigm: FPR})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("got %v", got)
	}
	var below int64
	for l := 0; l < len(stats.PairsPruned)-1; l++ {
		below += stats.PairsPruned[l]
	}
	if below == 0 {
		// The heavily pruned low LODs may genuinely not contain the
		// centroid; only the correctness above is guaranteed.
		t.Skip("containment settled only at the top LOD for this shape")
	}
}

// FuzzRangeQuery checks range queries under both paradigms against a
// brute-force []Triangle scan of the top-LOD meshes. The seeds are 25
// cubes of edge 2–27 with a uniform corner in the dataset's space.
func FuzzRangeQuery(f *testing.F) {
	fx := probeFixtureFor(f)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		lo := randIn(rng, fx.space)
		f.Add(lo.X, lo.Y, lo.Z, 2+rng.Float64()*25)
	}
	f.Fuzz(func(t *testing.T, x, y, z, sz float64) {
		box := geom.Box3{Min: geom.V(x, y, z), Max: geom.V(x+sz, y+sz, z+sz)}
		faces := boxSoA(box)
		var want []int64
		for j, m := range fx.meshes {
			if !m.Bounds().Intersects(box) {
				continue
			}
			hit := false
			for _, tri := range m.Triangles() {
				if box.ContainsPoint(tri.A) {
					hit = true
					break
				}
				for k := 0; k < faces.Len() && !hit; k++ {
					hit = geom.TriTriIntersect(tri, faces.At(k))
				}
				if hit {
					break
				}
			}
			if !hit && m.ContainsPoint(box.Center()) {
				hit = true // object swallows the box
			}
			if hit {
				want = append(want, int64(j))
			}
		}
		for _, paradigm := range []Paradigm{FR, FPR} {
			got, _, err := fx.e.RangeQuery(context.Background(), fx.d, box, QueryOptions{Paradigm: paradigm})
			if err != nil {
				t.Fatal(err)
			}
			checkIDs(t, fmt.Sprintf("%v box %v", paradigm, box), got, want)
		}
	})
}

func TestRangeQuerySwallowedBox(t *testing.T) {
	// A tiny box fully inside an object: no surface contact, but the
	// object must be reported.
	e := testEngine(t)
	big := mesh.Icosphere(10, 2)
	d, err := e.BuildDataset("big", []*mesh.Mesh{big}, fastDatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	box := geom.Box3{Min: geom.V(-0.5, -0.5, -0.5), Max: geom.V(0.5, 0.5, 0.5)}
	got, _, err := e.RangeQuery(context.Background(), d, box, QueryOptions{Paradigm: FPR})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("swallowed box: got %v", got)
	}

	// And a box fully containing the object.
	huge := geom.Box3{Min: geom.V(-20, -20, -20), Max: geom.V(20, 20, 20)}
	got2, _, err := e.RangeQuery(context.Background(), d, huge, QueryOptions{Paradigm: FPR})
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 1 {
		t.Fatalf("containing box: got %v", got2)
	}
}
