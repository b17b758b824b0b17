package ppvp

import (
	"runtime"
	"sync"
	"testing"
)

// BenchmarkCompress measures the encoder on the three object sizes the
// repository benchmark's ingest path sees: a 320-face nucleus, the
// 752-face vessel of an ingest-reload batch, and a ≥ 5 k-face vessel.
func BenchmarkCompress(b *testing.B) {
	for _, fx := range []fixture{
		{"nucleus320", nucleusFixture(1)},
		{"vessel752", vesselFixture(8, 8, 8)},
		{"vessel5k", vesselFixture(1, 20, 22)},
	} {
		b.Run(fx.name, func(b *testing.B) {
			opts := DefaultOptions()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Compress(fx.mesh, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCompressAllocationBudget trips when the encoder slides back into
// allocating per section or per candidate: one flate.NewWriter is ≈ 800 KB,
// so a fresh compressor for each of a nucleus's ≈ 11 sections alone is
// three times the budget.
func TestCompressAllocationBudget(t *testing.T) {
	// The race detector makes sync.Pool drop a quarter of all Puts on
	// purpose, and every dropped writer is 800 KB on the next section.
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		if probe.Put(new(int)); probe.Get() == nil {
			t.Skip("sync.Pool does not retain items in this build (race detector)")
		}
	}
	m := nucleusFixture(1)
	opts := DefaultOptions()
	if _, _, err := Compress(m, opts); err != nil { // warm the writer pool
		t.Fatal(err)
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := Compress(m, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const budget = 2_500_000
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Errorf("Compress of a 320-face nucleus allocated %d bytes, budget %d", per, budget)
	}
}
