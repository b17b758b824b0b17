package cache

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/ppvp"
)

// benchComp builds one deterministic compressed object for the decode
// micro-benchmarks (fixed geometry, no RNG).
func benchComp(b *testing.B) *ppvp.Compressed {
	b.Helper()
	c, _, err := ppvp.Compress(mesh.Icosphere(10, 3), ppvp.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkDecodeColdLadder is the pre-warm-start engine behavior: every
// LOD of the ladder decoded from scratch (replaying rounds from LOD 0).
func BenchmarkDecodeColdLadder(b *testing.B) {
	comp := benchComp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lod := 0; lod <= comp.MaxLOD(); lod++ {
			if _, err := comp.Decode(lod); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDecodeWarmLadder walks the same ladder through one progressive
// decoder, the warm-start path: each round is applied exactly once.
func BenchmarkDecodeWarmLadder(b *testing.B) {
	comp := benchComp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := comp.NewDecoder()
		if err != nil {
			b.Fatal(err)
		}
		for lod := 0; lod <= comp.MaxLOD(); lod++ {
			if _, err := d.DecodeTo(lod); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDecodeCacheLadder measures the full cache miss path (entry
// single-flight + seed choice + warm decode) over the ladder,
// clearing between iterations so every request is a miss.
func BenchmarkDecodeCacheLadder(b *testing.B) {
	comp := benchComp(b)
	c := New(64 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lod := 0; lod <= comp.MaxLOD(); lod++ {
			key := Key{Object: int64(i), LOD: lod} // fresh object: all misses
			if _, err := c.GetOrDecodeProgressiveCounted(key, comp, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCacheHit measures the sharded hit path.
func BenchmarkCacheHit(b *testing.B) {
	comp := benchComp(b)
	c := New(64 << 20)
	key := Key{Object: 1, LOD: comp.MaxLOD()}
	if _, err := c.GetOrDecodeProgressiveCounted(key, comp, nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetOrDecodeProgressiveCounted(key, comp, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
