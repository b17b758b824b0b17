package cache

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mesh"
	"repro/internal/ppvp"
)

func compressSphere(t testing.TB, r float64, level int) *ppvp.Compressed {
	t.Helper()
	c, _, err := ppvp.Compress(mesh.Icosphere(r, level), ppvp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func meshesEqual(a, b *mesh.Mesh) bool {
	if len(a.Vertices) != len(b.Vertices) || len(a.Faces) != len(b.Faces) {
		return false
	}
	for i := range a.Vertices {
		if a.Vertices[i] != b.Vertices[i] {
			return false
		}
	}
	for i := range a.Faces {
		if a.Faces[i] != b.Faces[i] {
			return false
		}
	}
	return true
}

// TestProgressiveWarmStartMatchesCold walks one object's LOD ladder upward
// through the cache (the FPR access pattern) and checks every warm-started
// mesh is identical to a cold Decode at that LOD, and that the counters
// prove the reuse: rounds applied + skipped never exceeds the cold cost.
func TestProgressiveWarmStartMatchesCold(t *testing.T) {
	comp := compressSphere(t, 10, 3)
	c := New(1 << 20)
	coldRounds := 0
	for lod := 0; lod <= comp.MaxLOD(); lod++ {
		m, err := c.GetOrDecodeProgressiveCounted(Key{Object: 1, LOD: lod}, comp, nil, nil)
		if err != nil {
			t.Fatalf("lod %d: %v", lod, err)
		}
		cold, err := comp.Decode(lod)
		if err != nil {
			t.Fatal(err)
		}
		if !meshesEqual(m, cold) {
			t.Fatalf("warm-started mesh at LOD %d differs from cold decode", lod)
		}
		coldRounds += comp.RoundsForLOD(lod)
	}
	s := c.Stats()
	if s.WarmStarts != int64(comp.MaxLOD()) {
		t.Errorf("WarmStarts = %d, want %d (every miss above LOD 0)", s.WarmStarts, comp.MaxLOD())
	}
	if s.RoundsApplied != int64(comp.RoundsForLOD(comp.MaxLOD())) {
		t.Errorf("RoundsApplied = %d, want %d (each round replayed once)",
			s.RoundsApplied, comp.RoundsForLOD(comp.MaxLOD()))
	}
	wantSkipped := int64(coldRounds - comp.RoundsForLOD(comp.MaxLOD()))
	if s.RoundsSkipped != wantSkipped {
		t.Errorf("RoundsSkipped = %d, want %d", s.RoundsSkipped, wantSkipped)
	}
	if c.NumDecoders() != 1 {
		t.Errorf("NumDecoders = %d, want 1", c.NumDecoders())
	}
}

// TestProgressiveDownwardMiss requests a high LOD first and a lower one
// second: the retained decoder cannot rewind, so the second miss must cold
// decode — correctly — and must not clobber the more advanced retained
// state.
func TestProgressiveDownwardMiss(t *testing.T) {
	comp := compressSphere(t, 10, 3)
	top := comp.MaxLOD()
	c := New(1 << 20)
	if _, err := c.GetOrDecodeProgressiveCounted(Key{Object: 1, LOD: top}, comp, nil, nil); err != nil {
		t.Fatal(err)
	}
	m, err := c.GetOrDecodeProgressiveCounted(Key{Object: 1, LOD: 1}, comp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := comp.Decode(1)
	if !meshesEqual(m, cold) {
		t.Fatal("downward miss returned wrong mesh")
	}
	s := c.Stats()
	if s.WarmStarts != 0 {
		t.Errorf("WarmStarts = %d, want 0 (rewind is a cold decode)", s.WarmStarts)
	}
	// The retained decoder must still be the advanced one: a later request
	// at top+0 LOD... resume from it without replaying everything.
	before := c.Stats().RoundsApplied
	if _, err := c.GetOrDecodeProgressiveCounted(Key{Object: 1, LOD: top - 1}, comp, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().RoundsApplied - before; got != int64(comp.RoundsForLOD(top-1)) {
		t.Errorf("third miss applied %d rounds, want full cold %d (decoder beyond target)",
			got, comp.RoundsForLOD(top-1))
	}
}

// TestProgressiveOnMissError checks onMiss failures propagate and do not
// poison the key or the decoder pool.
func TestProgressiveOnMissError(t *testing.T) {
	comp := compressSphere(t, 5, 2)
	c := New(1 << 20)
	boom := errors.New("boom")
	if _, err := c.GetOrDecodeProgressiveCounted(Key{Object: 3, LOD: 1}, comp, func() error { return boom }, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	m, err := c.GetOrDecodeProgressiveCounted(Key{Object: 3, LOD: 1}, comp, nil, nil)
	if err != nil || m == nil {
		t.Fatalf("retry after onMiss error: %v", err)
	}
}

// TestProgressiveZeroCapacity: a disabled cache still decodes correctly
// (cold every time, no retained decoders).
func TestProgressiveZeroCapacity(t *testing.T) {
	comp := compressSphere(t, 5, 2)
	c := New(0)
	for i := 0; i < 2; i++ {
		m, err := c.GetOrDecodeProgressiveCounted(Key{Object: 1, LOD: 2}, comp, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, _ := comp.Decode(2)
		if !meshesEqual(m, cold) {
			t.Fatal("disabled-cache decode differs from cold")
		}
	}
	if c.NumDecoders() != 0 {
		t.Errorf("disabled cache retained %d decoders", c.NumDecoders())
	}
}

// TestDecoderPoolConcurrentHammer races many goroutines over every LOD of a
// handful of objects through one cache (run under -race): single-flight on
// the decoder slots must serialize pool access, and every returned mesh
// must match its cold decode.
func TestDecoderPoolConcurrentHammer(t *testing.T) {
	comp := compressSphere(t, 10, 2)
	cold := make([]*mesh.Mesh, comp.NumLODs())
	for lod := range cold {
		var err error
		cold[lod], err = comp.Decode(lod)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Small capacity forces evictions and re-decodes mid-hammer.
	c := New(8 * meshBytes(cold[len(cold)-1]))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 100; i++ {
				lod := rng.Intn(comp.NumLODs())
				obj := int64(rng.Intn(3))
				m, err := c.GetOrDecodeProgressiveCounted(Key{Object: obj, LOD: lod}, comp, nil, nil)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !meshesEqual(m, cold[lod]) {
					t.Errorf("goroutine %d: wrong mesh at lod %d", g, lod)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.RoundsApplied == 0 {
		t.Error("no rounds applied under hammer")
	}
}

// TestDecoderPoolBounded checks the pool evicts LRU decoders past its cap.
func TestDecoderPoolBounded(t *testing.T) {
	comp := compressSphere(t, 5, 1)
	c := NewSharded(1<<24, 1) // one shard: pool cap is exact
	for i := 0; i < 3*maxDecodersPerShard; i++ {
		if _, err := c.GetOrDecodeProgressiveCounted(Key{Object: int64(i), LOD: 1}, comp, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.NumDecoders(); n > maxDecodersPerShard {
		t.Errorf("pool holds %d decoders, cap %d", n, maxDecodersPerShard)
	}
}

// TestShardingSpreadsObjects sanity-checks the sharded constructor: entries
// land in multiple shards and per-object affinity keeps warm starts working.
func TestShardingSpreadsObjects(t *testing.T) {
	comp := compressSphere(t, 5, 1)
	c := NewSharded(64<<20, 8)
	if c.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", c.NumShards())
	}
	for obj := int64(0); obj < 32; obj++ {
		for lod := 0; lod <= comp.MaxLOD(); lod++ {
			if _, err := c.GetOrDecodeProgressiveCounted(Key{Object: obj, LOD: lod}, comp, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := c.Stats()
	if s.WarmStarts != 32*int64(comp.MaxLOD()) {
		t.Errorf("WarmStarts = %d, want %d (sharding must not break per-object affinity)",
			s.WarmStarts, 32*int64(comp.MaxLOD()))
	}
}
