package geom_test

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/mesh"
)

// benchTissue is a small tissue with the shapes of the repository
// benchmark's: 320-face nuclei around 12 × 12 vessels.
func benchTissue(tb testing.TB) (nuclei, vessels []*mesh.Mesh) {
	space := geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(100, 100, 100)}
	nuclei, vessels = datagen.Tissue(datagen.TissueOptions{
		Nuclei:  datagen.NucleiOptions{Count: 27, SubdivisionLevel: 2, Space: space, Seed: 45},
		Vessels: datagen.VesselOptions{Count: 2, Space: space, Seed: 46, RingSegments: 12, PathPoints: 12},
	})
	if len(nuclei) < 2 || len(vessels) == 0 {
		tb.Fatalf("tissue has %d nuclei, %d vessels", len(nuclei), len(vessels))
	}
	return nuclei, vessels
}

var sinkD2 float64

// BenchmarkMinDist2Batch measures the brute-force kernel in ns per face pair
// of the cross product, on the three regimes that decide a distance join's
// cost: a bound that rejects the whole cross product at the gates (the far
// field), a bound just above the answer (the upper rungs of the ladder),
// and an unbounded nucleus × vessel product, where the running best has to
// be found first.
func BenchmarkMinDist2Batch(b *testing.B) {
	nuclei, vessels := benchTissue(b)
	n0, n1, v := nuclei[0].SoA(), nuclei[1].SoA(), vessels[0].SoA()
	nn := geom.MinDist2Batch(n0, n1, math.Inf(1))
	for _, bc := range []struct {
		name   string
		a, b   *geom.TriSoA
		upper2 float64
	}{
		{"far-field-reject", n0, v, geom.MinDist2Batch(n0, v, math.Inf(1)) / 4},
		{"near-hit", n0, n1, nn * 1.0001},
		{"nucleus-x-nucleus", n0, n1, math.Inf(1)},
		{"nucleus-x-vessel", n0, v, math.Inf(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkD2 = geom.MinDist2Batch(bc.a, bc.b, bc.upper2)
			}
			pairs := float64(bc.a.Len()) * float64(bc.b.Len())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/facepair")
		})
	}
}
