package ppvp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
)

func compressSphere(t *testing.T, radius float64, level int, opts Options) (*mesh.Mesh, *Compressed, Stats) {
	t.Helper()
	m := mesh.Icosphere(radius, level)
	c, st, err := Compress(m, opts)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	return m, c, st
}

func TestCompressBasics(t *testing.T) {
	m, c, st := compressSphere(t, 10, 2, DefaultOptions())

	if st.RoundsRun == 0 || st.VerticesRemoved == 0 {
		t.Fatalf("no decimation happened: %+v", st)
	}
	if c.MaxLOD() < 1 {
		t.Fatalf("MaxLOD = %d, want >= 1", c.MaxLOD())
	}
	if c.NumLODs() != c.MaxLOD()+1 {
		t.Errorf("NumLODs inconsistent with MaxLOD")
	}
	if c.PolicyUsed() != PruneProtruding {
		t.Errorf("policy = %v", c.PolicyUsed())
	}
	if got := c.MBB(); got != m.Bounds() {
		t.Errorf("MBB = %v, want %v", got, m.Bounds())
	}
	// Compression must actually shrink the data.
	raw := len(m.Vertices)*24 + len(m.Faces)*12
	if c.TotalSize() >= raw {
		t.Errorf("compressed %d >= raw %d", c.TotalSize(), raw)
	}
}

func TestAllLODsAreValidManifolds(t *testing.T) {
	_, c, _ := compressSphere(t, 5, 3, DefaultOptions())
	for lod := 0; lod <= c.MaxLOD(); lod++ {
		g, err := c.Decode(lod)
		if err != nil {
			t.Fatalf("Decode(%d): %v", lod, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("LOD %d invalid: %v", lod, err)
		}
	}
}

func TestHighestLODLossless(t *testing.T) {
	// Decoding the highest LOD must reproduce the quantized input exactly:
	// identical vertex multiset and identical face set (up to reindexing).
	m, c, _ := compressSphere(t, 7, 2, DefaultOptions())
	got, err := c.Decode(c.MaxLOD())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != m.NumVertices() || got.NumFaces() != m.NumFaces() {
		t.Fatalf("size mismatch: %v vs %v", got, m)
	}

	quant := newQuantizer(m.Bounds(), 16)
	type key [9]float64
	faceSet := func(mm *mesh.Mesh, snap bool) map[key]int {
		set := make(map[key]int, mm.NumFaces())
		for _, f := range mm.Faces {
			var pts [3]geom.Vec3
			for i := 0; i < 3; i++ {
				p := mm.Vertices[f[i]]
				if snap {
					p = quant.snap(p)
				}
				pts[i] = p
			}
			// Rotate so the lexicographically smallest vertex leads,
			// preserving orientation.
			lead := 0
			for i := 1; i < 3; i++ {
				if less(pts[i], pts[lead]) {
					lead = i
				}
			}
			var k key
			for i := 0; i < 3; i++ {
				p := pts[(lead+i)%3]
				k[3*i], k[3*i+1], k[3*i+2] = p.X, p.Y, p.Z
			}
			set[k]++
		}
		return set
	}
	want := faceSet(m, true)
	have := faceSet(got, false)
	if len(want) != len(have) {
		t.Fatalf("face set sizes differ: %d vs %d", len(want), len(have))
	}
	for k, n := range want {
		if have[k] != n {
			t.Fatalf("face %v count mismatch: want %d, have %d", k, n, have[k])
		}
	}
}

func less(a, b geom.Vec3) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.Z < b.Z
}

func TestProgressiveApproximationProperty(t *testing.T) {
	// The PPVP guarantee: each LOD is a spatial subset of the next. We test
	// it two ways: non-decreasing volume, and sampled containment.
	shapes := map[string]*mesh.Mesh{
		"sphere":    mesh.Icosphere(10, 3),
		"ellipsoid": mesh.Ellipsoid(8, 5, 3, 3),
		"tube": mesh.Tube(
			[]geom.Vec3{geom.V(0, 0, 0), geom.V(0, 1, 3), geom.V(1, 1, 6), geom.V(1, 0, 9)},
			[]float64{1, 1.2, 1.1, 0.9}, 10),
	}
	rng := rand.New(rand.NewSource(123))
	for name, m := range shapes {
		c, _, err := Compress(m, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var meshes []*mesh.Mesh
		dec, err := c.NewDecoder()
		if err != nil {
			t.Fatal(err)
		}
		for lod := 0; lod <= c.MaxLOD(); lod++ {
			g, err := dec.DecodeTo(lod)
			if err != nil {
				t.Fatalf("%s lod %d: %v", name, lod, err)
			}
			meshes = append(meshes, g)
		}
		for lod := 1; lod < len(meshes); lod++ {
			lo, hi := meshes[lod-1], meshes[lod]
			if lo.Volume() > hi.Volume()+1e-9 {
				t.Errorf("%s: volume decreased from LOD %d (%v) to %d (%v)",
					name, lod-1, lo.Volume(), lod, hi.Volume())
			}
			// Sample interior points of the lower LOD; all must be inside
			// the higher LOD.
			hiTris := hi.Triangles()
			b := lo.Bounds()
			checked := 0
			for i := 0; i < 3000 && checked < 60; i++ {
				p := geom.V(
					b.Min.X+rng.Float64()*b.Size().X,
					b.Min.Y+rng.Float64()*b.Size().Y,
					b.Min.Z+rng.Float64()*b.Size().Z,
				)
				if !lo.ContainsPoint(p) {
					continue
				}
				checked++
				if !geom.PointInTriangles(p, hiTris) {
					t.Fatalf("%s: point %v inside LOD %d but outside LOD %d", name, p, lod-1, lod)
				}
			}
			if checked == 0 {
				t.Fatalf("%s: no interior samples found for LOD %d", name, lod-1)
			}
		}
	}
}

func TestDistanceMonotonicity(t *testing.T) {
	// Paper §3.2 property 2: distance between two objects at a lower LOD is
	// ≥ distance at a higher LOD.
	a := mesh.Icosphere(5, 3)
	b := mesh.Icosphere(5, 3)
	b.Translate(geom.V(14, 2, 1))

	ca, _, err := Compress(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cb, _, err := Compress(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	maxLOD := ca.MaxLOD()
	if cb.MaxLOD() < maxLOD {
		maxLOD = cb.MaxLOD()
	}
	prev := math.Inf(1)
	for lod := 0; lod <= maxLOD; lod++ {
		ga, err := ca.Decode(lod)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := cb.Decode(lod)
		if err != nil {
			t.Fatal(err)
		}
		d := bruteDist(ga, gb)
		if d > prev+1e-9 {
			t.Fatalf("distance increased at LOD %d: %v > %v", lod, d, prev)
		}
		prev = d
	}
	// At the highest LOD the spheres are 14.25-10=4.25ish apart; sanity.
	if prev <= 0 || prev > 10 {
		t.Errorf("final distance %v implausible", prev)
	}
}

func bruteDist(a, b *mesh.Mesh) float64 {
	ta, tb := a.Triangles(), b.Triangles()
	best := math.Inf(1)
	for _, x := range ta {
		for _, y := range tb {
			if d := geom.TriTriDist2(x, y); d < best {
				best = d
			}
		}
	}
	return math.Sqrt(best)
}

func TestIntersectionMonotonicity(t *testing.T) {
	// Property 1: intersection at a lower LOD implies intersection at every
	// higher LOD. Build two overlapping blobs and check every LOD pair.
	a := mesh.Icosphere(6, 3)
	b := mesh.Icosphere(6, 3)
	b.Translate(geom.V(8, 0, 0)) // overlapping

	ca, _, _ := Compress(a, DefaultOptions())
	cb, _, _ := Compress(b, DefaultOptions())
	maxLOD := min(ca.MaxLOD(), cb.MaxLOD())
	prevIntersect := false
	for lod := 0; lod <= maxLOD; lod++ {
		ga, _ := ca.Decode(lod)
		gb, _ := cb.Decode(lod)
		inter := bruteIntersect(ga, gb)
		if prevIntersect && !inter {
			t.Fatalf("intersected at LOD %d but not at LOD %d", lod-1, lod)
		}
		prevIntersect = inter
	}
	if !prevIntersect {
		t.Error("spheres overlapping by construction never intersected")
	}
}

func bruteIntersect(a, b *mesh.Mesh) bool {
	ta, tb := a.Triangles(), b.Triangles()
	for _, x := range ta {
		for _, y := range tb {
			if geom.TriTriIntersect(x, y) {
				return true
			}
		}
	}
	return false
}

func TestSerializationRoundTrip(t *testing.T) {
	_, c, _ := compressSphere(t, 4, 2, DefaultOptions())
	blob := c.Bytes()
	c2, err := FromBytes(blob)
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	if c2.MaxLOD() != c.MaxLOD() || c2.TotalSize() != c.TotalSize() {
		t.Fatalf("metadata mismatch after round trip")
	}
	if c2.MBB() != c.MBB() {
		t.Errorf("MBB mismatch: %v vs %v", c2.MBB(), c.MBB())
	}
	for lod := 0; lod <= c.MaxLOD(); lod++ {
		g1, err := c.Decode(lod)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := c2.Decode(lod)
		if err != nil {
			t.Fatal(err)
		}
		if g1.NumVertices() != g2.NumVertices() || g1.NumFaces() != g2.NumFaces() {
			t.Fatalf("LOD %d: decoded sizes differ", lod)
		}
		for i, v := range g1.Vertices {
			if v != g2.Vertices[i] {
				t.Fatalf("LOD %d vertex %d: %v vs %v", lod, i, v, g2.Vertices[i])
			}
		}
	}
}

func TestFromBytesRejectsCorruption(t *testing.T) {
	_, c, _ := compressSphere(t, 4, 1, DefaultOptions())
	blob := append([]byte(nil), c.Bytes()...)

	// Bad magic.
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := FromBytes(bad); err == nil {
		t.Error("bad magic accepted")
	}

	// Bad version.
	bad = append([]byte(nil), blob...)
	bad[4] = 99
	if _, err := FromBytes(bad); err == nil {
		t.Error("bad version accepted")
	}

	// Truncated.
	if _, err := FromBytes(blob[:len(blob)/2]); err == nil {
		t.Error("truncated blob accepted")
	}

	// Empty.
	if _, err := FromBytes(nil); err == nil {
		t.Error("empty blob accepted")
	}
}

func TestDecoderSemantics(t *testing.T) {
	_, c, _ := compressSphere(t, 4, 2, DefaultOptions())
	d, err := c.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}
	if d.RoundsApplied() != 0 {
		t.Errorf("fresh decoder applied %d rounds", d.RoundsApplied())
	}
	if _, err := d.DecodeTo(2); err != nil {
		t.Fatal(err)
	}
	if d.RoundsApplied() != c.RoundsForLOD(2) {
		t.Errorf("rounds after DecodeTo(2) = %d, want %d", d.RoundsApplied(), c.RoundsForLOD(2))
	}
	// Rewinding is refused.
	if _, err := d.DecodeTo(1); err == nil {
		t.Error("rewind accepted")
	}
	// Same LOD is fine.
	if _, err := d.DecodeTo(2); err != nil {
		t.Errorf("re-decode same LOD: %v", err)
	}
	// Out of range.
	if _, err := d.DecodeTo(c.MaxLOD() + 1); err == nil {
		t.Error("out-of-range LOD accepted")
	}
	if _, err := d.DecodeTo(-1); err == nil {
		t.Error("negative LOD accepted")
	}
}

func TestDecodeSnapshotsIndependent(t *testing.T) {
	_, c, _ := compressSphere(t, 4, 2, DefaultOptions())
	d, _ := c.NewDecoder()
	g1, _ := d.DecodeTo(0)
	v0 := g1.Vertices[0]
	g2, _ := d.DecodeTo(1)
	g1.Vertices[0] = geom.V(1e9, 0, 0)
	g3, _ := d.DecodeTo(1)
	if g2.Vertices[0] != g3.Vertices[0] {
		t.Error("snapshots share storage across DecodeTo calls")
	}
	g4, _ := c.Decode(0)
	if g4.Vertices[0] != v0 {
		t.Error("mutating a snapshot corrupted the compressed object")
	}
}

func TestPruneAnyPolicy(t *testing.T) {
	// PPMC-style compression must round-trip too, and usually removes at
	// least as many vertices as PPVP.
	m := mesh.Ellipsoid(6, 4, 3, 3)
	optsAny := DefaultOptions()
	optsAny.Policy = PruneAny
	cAny, stAny, err := Compress(m, optsAny)
	if err != nil {
		t.Fatal(err)
	}
	_, stPPVP, err := Compress(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stAny.VerticesRemoved < stPPVP.VerticesRemoved {
		t.Errorf("PruneAny removed %d < PPVP %d", stAny.VerticesRemoved, stPPVP.VerticesRemoved)
	}
	for lod := 0; lod <= cAny.MaxLOD(); lod++ {
		g, err := cAny.Decode(lod)
		if err != nil {
			t.Fatalf("lod %d: %v", lod, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("lod %d invalid: %v", lod, err)
		}
	}
	// Highest LOD still lossless.
	top, _ := cAny.Decode(cAny.MaxLOD())
	if top.NumFaces() != m.NumFaces() {
		t.Errorf("PruneAny top LOD faces = %d, want %d", top.NumFaces(), m.NumFaces())
	}
	// The format is shared with PPVP; the policy byte records the encoder.
	c2, err := FromBytes(cAny.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cAny.PolicyUsed() != PruneAny || c2.PolicyUsed() != PruneAny {
		t.Errorf("policy = %v, %v after a round trip; want PruneAny", cAny.PolicyUsed(), c2.PolicyUsed())
	}
}

// dentedSphere returns a sphere with a deep pit — plenty of recessing
// vertices for the any-vertex policy to remove.
func dentedSphere() *mesh.Mesh {
	m := mesh.Icosphere(10, 3)
	for i, v := range m.Vertices {
		// Push vertices near the +X pole inward.
		if v.X > 7 {
			f := (v.X - 7) / 3 // 0..1
			m.Vertices[i] = v.Mul(1 - 0.45*f)
		}
	}
	return m
}

// TestPruneAnyFillsPits shows the concrete subset-property violation PPVP
// avoids (§3.2 of the paper): classic progressive compression (PPMC, the
// PruneAny policy) removes recessing vertices too, which fills pits, so a low
// LOD can poke outside the original. Sampling interior points of a lower LOD
// and finding one outside the full-resolution mesh detects it directly
// (volume alone can stay monotone by accident).
func TestPruneAnyFillsPits(t *testing.T) {
	m := dentedSphere()
	opts := DefaultOptions()
	opts.Policy = PruneAny
	cAny, _, err := Compress(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	top, err := cAny.Decode(cAny.MaxLOD())
	if err != nil {
		t.Fatal(err)
	}
	topTris := top.Triangles()
	rng := rand.New(rand.NewSource(77))
	violated := false
	for lod := 0; lod < cAny.MaxLOD() && !violated; lod++ {
		g, err := cAny.Decode(lod)
		if err != nil {
			t.Fatal(err)
		}
		b := g.Bounds()
		checked := 0
		for i := 0; i < 30000 && checked < 400; i++ {
			p := geom.V(
				b.Min.X+rng.Float64()*b.Size().X,
				b.Min.Y+rng.Float64()*b.Size().Y,
				b.Min.Z+rng.Float64()*b.Size().Z,
			)
			if !g.ContainsPoint(p) {
				continue
			}
			checked++
			if !geom.PointInTriangles(p, topTris) {
				violated = true // pit filled: low LOD pokes outside the original
				break
			}
		}
	}
	if !violated {
		t.Skip("PruneAny happened to produce subsets on this mesh; no guarantee was promised either way")
	}

	// PPVP on the same mesh must stay monotone.
	cP, _, err := Compress(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prev := -math.MaxFloat64
	for lod := 0; lod <= cP.MaxLOD(); lod++ {
		g, err := cP.Decode(lod)
		if err != nil {
			t.Fatal(err)
		}
		if g.Volume() < prev-1e-9 {
			t.Fatalf("PPVP volume decreased at LOD %d", lod)
		}
		prev = g.Volume()
	}
}

func TestCompressRejectsInvalidMesh(t *testing.T) {
	open := &mesh.Mesh{
		Vertices: []geom.Vec3{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0)},
		Faces:    []mesh.Face{{0, 1, 2}},
	}
	if _, _, err := Compress(open, DefaultOptions()); err == nil {
		t.Error("open mesh accepted")
	}
}

func TestLODSizes(t *testing.T) {
	_, c, _ := compressSphere(t, 10, 3, DefaultOptions())
	sizes := c.LODSizes()
	if len(sizes) != c.NumLODs() {
		t.Fatalf("LODSizes len = %d, want %d", len(sizes), c.NumLODs())
	}
	var sum int
	for lod, s := range sizes {
		if s <= 0 {
			t.Errorf("LOD %d size %d", lod, s)
		}
		sum += s
	}
	if sum >= c.TotalSize() {
		t.Errorf("sections %d >= total %d (header missing?)", sum, c.TotalSize())
	}
	ss := c.SectionSizes()
	if len(ss) != 1+c.NumRounds() {
		t.Errorf("SectionSizes len = %d", len(ss))
	}
}

func TestFacesHalveEveryTwoRounds(t *testing.T) {
	// Fig. 11: for a nucleus-like mesh the face count roughly halves every
	// two rounds of decimation while decimation is unconstrained.
	m := mesh.Icosphere(10, 3) // 1280 faces
	_, st, err := Compress(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.FacesPerRound) < 5 {
		t.Fatalf("too few rounds: %v", st.FacesPerRound)
	}
	// Check the first two LOD steps (4 rounds): ratio in [1.5, 3] per step.
	for step := 0; step < 2; step++ {
		f0 := float64(st.FacesPerRound[2*step])
		f1 := float64(st.FacesPerRound[2*step+2])
		r := f0 / f1
		if r < 1.5 || r > 3.2 {
			t.Errorf("LOD step %d: face ratio %v outside [1.5, 3.2] (%v)", step, r, st.FacesPerRound)
		}
	}
}

func TestProfileProtruding(t *testing.T) {
	// A convex-ish sphere should be ~100 % protruding.
	sphere := mesh.Icosphere(10, 2)
	p, e := ProfileProtruding(sphere)
	if e == 0 {
		t.Fatal("nothing examined")
	}
	if frac := float64(p) / float64(e); frac < 0.95 {
		t.Errorf("sphere protruding fraction = %v, want >= 0.95", frac)
	}

	// A bifurcated tube has recessing joints: fraction must be lower than a
	// sphere's but still majority-protruding.
	tube := mesh.Tube(
		[]geom.Vec3{geom.V(0, 0, 0), geom.V(0, 0, 2), geom.V(0, 1, 4), geom.V(0, 0, 6), geom.V(0, -1, 8)},
		[]float64{0.5, 0.8, 0.5, 0.9, 0.5}, 12)
	p2, e2 := ProfileProtruding(tube)
	if e2 == 0 {
		t.Fatal("nothing examined on tube")
	}
	if frac := float64(p2) / float64(e2); frac < 0.4 {
		t.Errorf("tube protruding fraction = %v suspiciously low", frac)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.setDefaults()
	if o.Rounds != 10 || o.RoundsPerLOD != 2 || o.QuantBits != 16 {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{QuantBits: 99}
	o.setDefaults()
	if o.QuantBits > 30 {
		t.Errorf("QuantBits not clamped: %d", o.QuantBits)
	}
}

func TestPolicyString(t *testing.T) {
	if PruneProtruding.String() != "ppvp" || PruneAny.String() != "ppmc" {
		t.Error("Policy String() wrong")
	}
	if Policy(42).String() != "unknown" {
		t.Error("unknown policy String() wrong")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSharedFaceFractions(t *testing.T) {
	_, c, _ := compressSphere(t, 8, 3, DefaultOptions())
	fs, err := SharedFaceFractions(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != c.MaxLOD() {
		t.Fatalf("fractions = %d, want %d", len(fs), c.MaxLOD())
	}
	for i, f := range fs {
		if f < 0 || f > 1 {
			t.Errorf("fraction %d = %v out of range", i, f)
		}
	}
	// With 2 rounds per LOD, most faces should be replaced between LODs
	// (the paper's figure is ~15.6% shared).
	var avg float64
	for _, f := range fs {
		avg += f
	}
	avg /= float64(len(fs))
	if avg > 0.6 {
		t.Errorf("average shared fraction %v suspiciously high", avg)
	}
}
