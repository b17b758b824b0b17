package cache

import (
	"encoding/binary"
	"testing"

	"repro/internal/mesh"
	"repro/internal/ppvp"
)

// The eviction policy's cases, each on a single-shard cache with a budget
// counted in whole entries: GDSF keeps what is read often and what is small
// against what its object costs to decode, and its aging clock lets go of
// whatever stops being read.

// put admits obj at LOD 0 through GetOrDecode, as a single-use lookup.
func put(t *testing.T, c *Cache, obj int64) {
	t.Helper()
	if _, err := c.GetOrDecode(Key{Object: obj}, func() (*mesh.Mesh, error) { return sphere(1), nil }); err != nil {
		t.Fatal(err)
	}
}

// priority returns the true H of a resident entry (as of its last touch,
// whatever its stored heap key) and whether it is resident.
func priority(c *Cache, key Key) (float64, bool) {
	s := c.shardFor(key.Object)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.idx < 0 {
		return 0, false
	}
	return e.trueH(), true
}

// TestFrequentEntrySurvivesSweep: an entry read five times outlives a sweep
// of single-use entries twice the cache's size, which LRU would have let
// push it out after two.
func TestFrequentEntrySurvivesSweep(t *testing.T) {
	c := New(3*meshBytes(sphere(1)) + 10)
	put(t, c, 0)
	for i := 0; i < 4; i++ {
		c.Get(Key{Object: 0})
	}
	for obj := int64(1); obj <= 6; obj++ {
		put(t, c, obj)
	}
	if _, ok := priority(c, Key{Object: 0}); !ok {
		t.Error("the entry read five times was evicted by single-use entries")
	}
	if c.Get(Key{Object: 1}) != nil || c.Get(Key{Object: 6}) == nil {
		t.Error("among single-use entries, the oldest should go first")
	}
	checkAccounting(t, c, "after sweep")
}

// TestIdleEntryAgesOut: an entry that was hot and is now idle stays exactly
// as long as the aging clock is below its H, and is evicted once the clock
// reaches it.
func TestIdleEntryAgesOut(t *testing.T) {
	c := New(3*meshBytes(sphere(1)) + 10)
	put(t, c, 0)
	for i := 0; i < 9; i++ {
		c.Get(Key{Object: 0})
	}
	hot, _ := priority(c, Key{Object: 0})
	s := c.shardFor(0)
	for obj := int64(1); ; obj++ {
		if obj > 100 {
			t.Fatalf("the idle entry (H %g) was never evicted; clock at %g", hot, s.clock)
		}
		put(t, c, obj)
		_, resident := priority(c, Key{Object: 0})
		s.mu.Lock()
		clock := s.clock
		s.mu.Unlock()
		if resident != (clock < hot) {
			t.Fatalf("after %d single-use entries: resident = %v with clock %g and H %g", obj, resident, clock, hot)
		}
		if !resident {
			break
		}
	}
	checkAccounting(t, c, "after ageing out")
}

// TestTiesGoToLeastRecentlyTouched: entries of equal H leave in the order
// they were last touched, not the order they were admitted. The budget is
// lowered one entry at a time, so each step evicts exactly one.
func TestTiesGoToLeastRecentlyTouched(t *testing.T) {
	one := meshBytes(sphere(1))
	c := New(3*one + 10)
	for obj := int64(1); obj <= 3; obj++ {
		put(t, c, obj)
	}
	for _, obj := range []int64{3, 1, 2} { // every n is 2 now, every H equal
		c.Get(Key{Object: obj})
	}
	s := c.shardFor(0)
	for _, want := range []int64{3, 1, 2} {
		s.mu.Lock()
		s.capacity -= one
		s.evictLocked()
		s.mu.Unlock()
		if _, ok := priority(c, Key{Object: want}); ok || c.Len() != int(s.capacity/one) {
			t.Fatalf("entry %d should have been the one evicted (Len %d)", want, c.Len())
		}
	}
}

// TestLowLODOutranksTopLOD: at equal lookup counts, an object's LOD 0
// (few faces against its full count) outranks its top LOD (cost/size term
// 2), so an admission evicts the top LOD although LOD 0 is older.
func TestLowLODOutranksTopLOD(t *testing.T) {
	comp := compressSphere(t, 1, 2)
	top := comp.MaxLOD()
	low, err := comp.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := comp.Decode(top)
	if err != nil {
		t.Fatal(err)
	}
	small := sphere(1)
	c := New(meshBytes(low) + meshBytes(full) + meshBytes(small) - 1)
	for _, lod := range []int{0, top} {
		if _, err := c.GetOrDecodeProgressiveCounted(Key{Object: 1, LOD: lod}, comp, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	hLow, _ := priority(c, Key{Object: 1, LOD: 0})
	hTop, _ := priority(c, Key{Object: 1, LOD: top})
	if want := 1 + float64(len(full.Faces))/float64(len(low.Faces)); hLow != want || hTop != 2 {
		t.Fatalf("H of LOD 0 = %g (want %g), of the top LOD = %g (want 2)", hLow, want, hTop)
	}
	put(t, c, 2)
	if _, ok := priority(c, Key{Object: 1, LOD: top}); ok {
		t.Error("the top LOD survived the admission")
	}
	if _, ok := priority(c, Key{Object: 1, LOD: 0}); !ok {
		t.Error("LOD 0 was evicted although it outranks the top LOD")
	}
	checkAccounting(t, c, "after admission")
}

// lruHits replays trace through a byte-budgeted LRU of the same capacity
// and charges as the cache: the baseline the sweep test compares against.
func lruHits(trace []Key, size map[Key]int64, capacity int64) int {
	var order []Key // front = least recent
	var used int64
	hits := 0
	for _, k := range trace {
		found := -1
		for i, o := range order {
			if o == k {
				found = i
			}
		}
		if found >= 0 {
			hits++
			order = append(append(order[:found:found], order[found+1:]...), k)
			continue
		}
		order = append(order, k)
		used += size[k]
		for used > capacity {
			used -= size[order[0]]
			order = order[1:]
		}
	}
	return hits
}

// TestCyclicSweepKeepsPartOfWorkingSet is join-cold in miniature: a rota
// reads every object at LOD 0 and then at its top LOD, over a working set
// twice the budget. LRU evicts every entry before its next visit and gets
// no hit at all; GDSF keeps the low LODs, small and dear to replace, and
// hits them on every pass after the first.
func TestCyclicSweepKeepsPartOfWorkingSet(t *testing.T) {
	comp := compressSphere(t, 1, 2)
	top := comp.MaxLOD()
	var trace []Key
	const objects, passes = 8, 6
	for p := 0; p < passes; p++ {
		for obj := int64(0); obj < objects; obj++ {
			trace = append(trace, Key{Object: obj, LOD: 0}, Key{Object: obj, LOD: top})
		}
	}
	size := map[Key]int64{}
	var working int64
	for _, lod := range []int{0, top} {
		m, err := comp.Decode(lod)
		if err != nil {
			t.Fatal(err)
		}
		for obj := int64(0); obj < objects; obj++ {
			size[Key{Object: obj, LOD: lod}] = meshBytes(m)
			working += meshBytes(m)
		}
	}
	capacity := working / 2
	if got := lruHits(trace, size, capacity); got != 0 {
		t.Fatalf("the LRU baseline got %d hits; the sweep is meant to defeat it", got)
	}
	c := New(capacity)
	for _, k := range trace {
		if _, err := c.GetOrDecodeProgressiveCounted(k, comp, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	checkAccounting(t, c, "after sweep")
	st := c.Stats()
	if want := int64((passes - 1) * objects); st.Hits < want {
		t.Errorf("GDSF got %d hits on the cyclic sweep, want at least %d (every LOD 0 after the first pass)", st.Hits, want)
	}
}

// withFaceTotal returns blob with its header's face total replaced by nf
// (the total is a varint, and sections are located by their lengths).
func withFaceTotal(blob []byte, nf int) []byte {
	off := 8 // magic, version, policy, quantBits, roundsPerLOD
	_, w := binary.Uvarint(blob[off:])
	off += w + 9*8 // nRounds, origin, cell, boundsMax
	_, w = binary.Uvarint(blob[off:])
	off += w // nVertsTotal
	_, w = binary.Uvarint(blob[off:])
	out := binary.AppendUvarint(append([]byte(nil), blob[:off]...), uint64(nf))
	return append(out, blob[off+w:]...)
}

// TestOverstatedFaceTotalIsBounded: a header that claims the most faces a
// blob may (FromBytes refuses more than 1<<28) cannot pin its entries. At
// the top LOD the count is the decoded mesh's own, so the entry ranks
// exactly as the honest blob's and leaves with it; below the top, its cost
// term is bounded by what the blob's remaining rounds could add, so the
// clock reaches it and a sweep evicts it.
func TestOverstatedFaceTotalIsBounded(t *testing.T) {
	honest := compressSphere(t, 1, 2)
	hostile, err := ppvp.FromBytes(withFaceTotal(honest.Bytes(), 1<<28))
	if err != nil {
		t.Fatal(err)
	}
	if hostile.NumFaces() != 1<<28 {
		t.Fatalf("rewritten header claims %d faces", hostile.NumFaces())
	}
	top := honest.MaxLOD()
	full, err := honest.Decode(top)
	if err != nil {
		t.Fatal(err)
	}
	c := New(2*meshBytes(full) + 10)
	for obj, comp := range []*ppvp.Compressed{honest, hostile} {
		if _, err := c.GetOrDecodeProgressiveCounted(Key{Object: int64(obj), LOD: top}, comp, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	hHonest, _ := priority(c, Key{Object: 0, LOD: top})
	hHostile, _ := priority(c, Key{Object: 1, LOD: top})
	if hHonest != hHostile {
		t.Fatalf("top LOD: hostile H %g, honest H %g", hHostile, hHonest)
	}
	for obj := int64(2); obj <= 8; obj++ {
		put(t, c, obj)
	}
	for obj := int64(0); obj <= 1; obj++ {
		if _, ok := priority(c, Key{Object: obj, LOD: top}); ok {
			t.Errorf("top LOD of object %d survived a sweep of single-use entries", obj)
		}
	}

	low, err := hostile.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	// Room for this entry and one single-use sphere: every admission then
	// evicts a sphere, and every second one raises the clock by the
	// spheres' cost term, 2.
	c = New(meshBytes(low) + meshBytes(sphere(1)) + 10)
	if _, err := c.GetOrDecodeProgressiveCounted(Key{Object: 1, LOD: 0}, hostile, nil, nil); err != nil {
		t.Fatal(err)
	}
	h, _ := priority(c, Key{Object: 1, LOD: 0})
	f := float64(len(low.Faces))
	if bound := 1 + (f+float64(hostile.TotalSize())*258)/f; h > bound {
		t.Fatalf("LOD 0: H %g exceeds what the blob can back (%g)", h, bound)
	}
	for obj := int64(2); ; obj++ {
		if _, ok := priority(c, Key{Object: 1, LOD: 0}); !ok {
			break
		}
		if obj > 4+int64(h) {
			t.Fatalf("LOD 0 of the overstated blob (H %g) still resident after %d single-use entries", h, obj-2)
		}
		put(t, c, obj)
	}
	checkAccounting(t, c, "after sweep")
}
