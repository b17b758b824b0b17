package datagen

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/index/aabbtree"
	"repro/internal/ppvp"
)

func TestNucleiBasics(t *testing.T) {
	opts := NucleiOptions{Count: 27, Seed: 1}
	nuclei := Nuclei(opts)
	if len(nuclei) != 27 {
		t.Fatalf("count = %d", len(nuclei))
	}
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(100, 100, 100)}
	for i, n := range nuclei {
		if err := n.Validate(); err != nil {
			t.Fatalf("nucleus %d invalid: %v", i, err)
		}
		if n.NumFaces() != 320 {
			t.Errorf("nucleus %d has %d faces, want 320", i, n.NumFaces())
		}
		if !space.Expand(1e-9).Contains(n.Bounds()) {
			t.Errorf("nucleus %d escapes the space: %v", i, n.Bounds())
		}
	}
}

func TestNucleiDisjointWithinDataset(t *testing.T) {
	nuclei := Nuclei(NucleiOptions{Count: 27, Seed: 2})
	trees := make([]*aabbtree.Tree, len(nuclei))
	for i, n := range nuclei {
		trees[i] = aabbtree.BuildFaces(n.Vertices, n.Faces, nil)
	}
	for i := range trees {
		for j := i + 1; j < len(trees); j++ {
			if !trees[i].Bounds().Intersects(trees[j].Bounds()) {
				continue
			}
			if trees[i].IntersectsTree(trees[j]) {
				t.Fatalf("nuclei %d and %d intersect", i, j)
			}
		}
	}
}

func TestNucleiDeterministic(t *testing.T) {
	a := Nuclei(NucleiOptions{Count: 5, Seed: 7})
	b := Nuclei(NucleiOptions{Count: 5, Seed: 7})
	for i := range a {
		if a[i].NumVertices() != b[i].NumVertices() {
			t.Fatal("non-deterministic generation")
		}
		for j := range a[i].Vertices {
			if a[i].Vertices[j] != b[i].Vertices[j] {
				t.Fatal("non-deterministic vertices")
			}
		}
	}
	c := Nuclei(NucleiOptions{Count: 5, Seed: 8})
	if c[0].Vertices[0] == a[0].Vertices[0] {
		t.Error("different seeds produced identical data")
	}
}

func TestSecondSegmentationIntersectsFirst(t *testing.T) {
	// The offset dataset must intersect the original one (the paper's
	// intersection-join workload needs hits).
	a := Nuclei(NucleiOptions{Count: 8, Seed: 3})
	b := Nuclei(NucleiOptions{Count: 8, Seed: 4, Offset: geom.V(0.8, 0.5, 0.3)})
	hits := 0
	for i := range a {
		ta := aabbtree.BuildFaces(a[i].Vertices, a[i].Faces, nil)
		for j := range b {
			if !a[i].Bounds().Intersects(b[j].Bounds()) {
				continue
			}
			if ta.IntersectsTree(aabbtree.BuildFaces(b[j].Vertices, b[j].Faces, nil)) {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Error("offset dataset never intersects the original")
	}
}

func TestNucleiMostlyProtruding(t *testing.T) {
	// The paper reports ≈99 % protruding vertices for nuclei; require ≥95 %.
	nuclei := Nuclei(NucleiOptions{Count: 4, Seed: 5})
	var prot, total int
	for _, n := range nuclei {
		p, e := ppvp.ProfileProtruding(n)
		prot += p
		total += e
	}
	if total == 0 {
		t.Fatal("nothing examined")
	}
	if frac := float64(prot) / float64(total); frac < 0.95 {
		t.Errorf("nuclei protruding fraction = %v, want >= 0.95", frac)
	}
}

func TestVesselsBasics(t *testing.T) {
	opts := VesselOptions{Count: 4, Seed: 1}
	vessels := Vessels(opts)
	if len(vessels) != 4 {
		t.Fatalf("count = %d", len(vessels))
	}
	for i, v := range vessels {
		if err := v.Validate(); err != nil {
			t.Fatalf("vessel %d invalid: %v", i, err)
		}
		if v.NumFaces() < 500 {
			t.Errorf("vessel %d only has %d faces", i, v.NumFaces())
		}
		if v.Volume() <= 0 {
			t.Errorf("vessel %d volume %v", i, v.Volume())
		}
	}
}

func TestVesselsDisjoint(t *testing.T) {
	vessels := Vessels(VesselOptions{Count: 4, Seed: 2})
	trees := make([]*aabbtree.Tree, len(vessels))
	for i, v := range vessels {
		trees[i] = aabbtree.BuildFaces(v.Vertices, v.Faces, nil)
	}
	for i := range trees {
		for j := i + 1; j < len(trees); j++ {
			if trees[i].Bounds().Intersects(trees[j].Bounds()) &&
				trees[i].IntersectsTree(trees[j]) {
				t.Fatalf("vessels %d and %d intersect", i, j)
			}
		}
	}
}

func TestVesselsCompressible(t *testing.T) {
	// Vessels must survive the full PPVP pipeline with the subset property
	// (volume monotone in LOD).
	v := Vessels(VesselOptions{Count: 1, Seed: 3, RingSegments: 8, PathPoints: 8})[0]
	c, st, err := ppvp.Compress(v, ppvp.DefaultOptions())
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if st.VerticesRemoved == 0 {
		t.Error("no vertices removed from vessel")
	}
	var prev float64
	for lod := 0; lod <= c.MaxLOD(); lod++ {
		g, err := c.Decode(lod)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("vessel LOD %d invalid: %v", lod, err)
		}
		if g.Volume() < prev-1e-9 {
			t.Fatalf("vessel volume decreased at LOD %d", lod)
		}
		prev = g.Volume()
	}
}

func TestVesselsProtrudingFractionBelowNuclei(t *testing.T) {
	v := Vessels(VesselOptions{Count: 2, Seed: 6})
	var prot, total int
	for _, m := range v {
		p, e := ppvp.ProfileProtruding(m)
		prot += p
		total += e
	}
	if total == 0 {
		t.Fatal("nothing examined")
	}
	frac := float64(prot) / float64(total)
	if frac < 0.4 || frac > 0.999 {
		t.Errorf("vessel protruding fraction = %v, want within (0.4, 0.999)", frac)
	}
}

func TestVesselsDeterministic(t *testing.T) {
	a := Vessels(VesselOptions{Count: 2, Seed: 9})
	b := Vessels(VesselOptions{Count: 2, Seed: 9})
	for i := range a {
		if a[i].NumVertices() != b[i].NumVertices() || a[i].NumFaces() != b[i].NumFaces() {
			t.Fatal("non-deterministic vessels")
		}
	}
}

func TestGridCells(t *testing.T) {
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(10, 10, 10)}
	cells := gridCells(space, 5)
	if len(cells) < 5 {
		t.Fatalf("cells = %d, want >= 5", len(cells))
	}
	for _, c := range cells {
		if !space.Expand(1e-9).Contains(c) {
			t.Errorf("cell %v outside space", c)
		}
	}
}

func TestDefaults(t *testing.T) {
	var n NucleiOptions
	n.setDefaults()
	if n.Count <= 0 || n.SubdivisionLevel != 2 || n.NoiseAmplitude <= 0 {
		t.Errorf("nuclei defaults: %+v", n)
	}
	var v VesselOptions
	v.setDefaults()
	if v.Count <= 0 || v.Bifurcations != 5 || v.RingSegments < 3 {
		t.Errorf("vessel defaults: %+v", v)
	}
}
