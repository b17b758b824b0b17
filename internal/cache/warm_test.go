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
}

// TestProgressiveDownwardMiss requests a high LOD first and lower ones
// after it. The warm point sits above them and cannot rewind, so the first
// lower miss decodes cold — correctly — and leaves the warm point where it
// is; the next miss between the two resumes from the resident lower LOD.
func TestProgressiveDownwardMiss(t *testing.T) {
	comp := compressSphere(t, 10, 3)
	top := comp.MaxLOD()
	c := New(1 << 20)
	get := func(lod int) {
		t.Helper()
		m, err := c.GetOrDecodeProgressiveCounted(Key{Object: 1, LOD: lod}, comp, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cold, _ := comp.Decode(lod); !meshesEqual(m, cold) {
			t.Fatalf("miss at LOD %d returned the wrong mesh", lod)
		}
	}
	get(top)
	get(1)
	s := c.Stats()
	if s.WarmStarts != 0 || s.RoundsApplied != int64(comp.RoundsForLOD(top)+comp.RoundsForLOD(1)) {
		t.Errorf("after top and LOD 1: WarmStarts %d, RoundsApplied %d; want 0 and two cold decodes", s.WarmStarts, s.RoundsApplied)
	}
	if w := c.shards[0].warm[1]; w == nil || w.lod != top {
		t.Fatalf("warm point %+v, want it left at the top LOD %d", w, top)
	}

	before := c.Stats()
	get(top - 1)
	d := c.Stats().Sub(before)
	if d.WarmStarts != 1 || d.RoundsSkipped != int64(comp.RoundsForLOD(1)) ||
		d.RoundsApplied != int64(comp.RoundsForLOD(top-1)-comp.RoundsForLOD(1)) {
		t.Errorf("miss at LOD %d: %+v, want a warm start from the resident LOD 1", top-1, d)
	}
}

// TestGetOrDecodeMeshNeverSeeds: a mesh admitted through GetOrDecode is
// whatever its caller decoded, so a progressive miss above it on the same
// object must not resume from it.
func TestGetOrDecodeMeshNeverSeeds(t *testing.T) {
	comp := compressSphere(t, 10, 3)
	c := New(1 << 20)
	if _, err := c.GetOrDecode(Key{Object: 1, LOD: 0}, func() (*mesh.Mesh, error) { return mesh.Icosphere(2, 1), nil }); err != nil {
		t.Fatal(err)
	}
	m, err := c.GetOrDecodeProgressiveCounted(Key{Object: 1, LOD: 1}, comp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold, _ := comp.Decode(1); !meshesEqual(m, cold) {
		t.Fatal("miss above a GetOrDecode entry returned the wrong mesh")
	}
	if s := c.Stats(); s.WarmStarts != 0 {
		t.Errorf("WarmStarts = %d, want 0: a GetOrDecode mesh seeded the decode", s.WarmStarts)
	}
}

// TestProgressiveOnMissError checks onMiss failures propagate and do not
// poison the key or the warm point.
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
// (cold every time, nothing held).
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
	if s := c.Stats(); s.WarmStarts != 0 || s.BytesUsed != 0 || s.WarmBytes != 0 {
		t.Errorf("disabled cache held something: %+v", s)
	}
}

// TestWarmStartConcurrentHammer races many goroutines over every LOD of a
// handful of objects through one cache (run under -race): misses resume
// from warm points and resident entries that other goroutines publish,
// charge and drop, and every returned mesh must match its cold decode.
func TestWarmStartConcurrentHammer(t *testing.T) {
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
	if s.RoundsApplied == 0 || s.WarmStarts == 0 {
		t.Errorf("hammer applied %d rounds in %d warm starts, want both > 0", s.RoundsApplied, s.WarmStarts)
	}
	checkAccounting(t, c, "quiescent")
}

// TestWarmBytesBounded decodes many objects through one shard too small to
// keep them: each evicted top-LOD entry leaves a charged warm point, and
// the charged warm points must never take more than half the budget, the
// oldest going first. A miss on a surviving warm point is served from it
// outright, replaying no round.
func TestWarmBytesBounded(t *testing.T) {
	comp := compressSphere(t, 5, 1)
	top := comp.MaxLOD()
	m, err := comp.Decode(top)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSharded(8*meshBytes(m), 1)
	const objects = 40
	for i := int64(0); i < objects; i++ {
		if _, err := c.GetOrDecodeProgressiveCounted(Key{Object: i, LOD: top}, comp, nil, nil); err != nil {
			t.Fatal(err)
		}
		checkAccounting(t, c, "admission")
	}
	s := c.shards[0]
	if s.warmBytes == 0 || len(s.warm) == objects {
		t.Fatalf("%d warm points charging %d B: the budget never dropped one", len(s.warm), s.warmBytes)
	}
	if s.warm[0] != nil || s.warm[objects-1] == nil {
		t.Error("the charged ring did not drop the oldest warm points first")
	}

	var newest int64 = -1
	for obj, w := range s.warm {
		if w.prev != nil && obj > newest {
			newest = obj
		}
	}
	if newest < 0 {
		t.Fatal("no charged warm point to serve from")
	}
	var req Counters
	got, err := c.GetOrDecodeProgressiveCounted(Key{Object: newest, LOD: top}, comp, nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	if !meshesEqual(got, m) {
		t.Fatal("mesh served from a warm point differs from the cold decode")
	}
	if req.Misses.Load() != 1 || req.WarmStarts.Load() != 1 || req.RoundsApplied.Load() != 0 ||
		req.RoundsSkipped.Load() != int64(comp.RoundsForLOD(top)) {
		t.Errorf("serve from a warm point: %+v, want 1 miss, 1 warm start, 0 rounds applied", sumCounters([]*Counters{&req}))
	}
	checkAccounting(t, c, "served from a warm point")
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
