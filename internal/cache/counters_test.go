package cache

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// sumCounters folds a set of per-request Counters into a Stats value so it
// can be compared against the cache-wide delta field by field.
func sumCounters(cs []*Counters) Stats {
	var s Stats
	for _, c := range cs {
		s.Hits += c.Hits.Load()
		s.Misses += c.Misses.Load()
		s.WarmStarts += c.WarmStarts.Load()
		s.RoundsApplied += c.RoundsApplied.Load()
		s.RoundsSkipped += c.RoundsSkipped.Load()
		s.DecodeFailures += c.DecodeFailures.Load()
	}
	return s
}

// TestCountersMatchGlobalDelta is the attribution invariant at the cache
// layer: when every caller passes its own Counters, the sum across callers
// equals the cache-wide Stats delta exactly — even with single-flight
// sharing, warm starts, evictions, and decode failures happening
// concurrently. This is the property the engine relies on to report exact
// per-query stats.
func TestCountersMatchGlobalDelta(t *testing.T) {
	comp := compressSphere(t, 10, 2)
	cold, err := comp.Decode(comp.MaxLOD())
	if err != nil {
		t.Fatal(err)
	}
	// Small capacity forces evictions and re-decodes mid-hammer.
	c := New(8 * meshBytes(cold))
	before := c.Stats()

	boom := errors.New("boom")
	const goroutines = 16
	ctrs := make([]*Counters, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		ctrs[g] = new(Counters)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 150; i++ {
				key := Key{Object: int64(rng.Intn(4)), LOD: rng.Intn(comp.NumLODs())}
				var onMiss func() error
				if rng.Intn(10) == 0 {
					onMiss = func() error { return boom }
				}
				m, err := c.GetOrDecodeProgressiveCounted(key, comp, onMiss, ctrs[g])
				if err != nil && !errors.Is(err, boom) {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if err == nil && m == nil {
					t.Errorf("goroutine %d: nil mesh without error", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// A miss on an object whose entry was evicted while its warm point
	// stayed is served from the warm point outright: a warm start that
	// skips every round and applies none. Cleared first, the cache keeps
	// the warm point for certain.
	c.Clear()
	top := Key{Object: 9, LOD: comp.MaxLOD()}
	served := new(Counters)
	ctrs = append(ctrs, served)
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrDecodeProgressiveCounted(top, comp, nil, served); err != nil {
			t.Fatal(err)
		}
		s := c.shardFor(top.Object)
		s.mu.Lock()
		if e := s.entries[top]; e != nil && e.idx >= 0 {
			s.removeLocked(e)
		}
		s.mu.Unlock()
	}
	if served.WarmStarts.Load() != 1 || served.RoundsSkipped.Load() != int64(comp.RoundsForLOD(top.LOD)) {
		t.Errorf("second miss was not served from the warm point: %+v", sumCounters([]*Counters{served}))
	}

	delta := c.Stats().Sub(before)
	// The cache-wide delta also moves Evictions, BytesUsed and WarmBytes,
	// which are not per-request notions; compare only the attributed fields.
	delta.Evictions, delta.BytesUsed, delta.WarmBytes = 0, 0, 0
	got := sumCounters(ctrs)
	if got != delta {
		t.Errorf("per-request counter sum diverges from global delta:\n  sum   = %+v\n  delta = %+v", got, delta)
	}
	if got.Hits == 0 || got.WarmStarts == 0 || got.DecodeFailures == 0 {
		t.Errorf("hammer did not exercise all paths: %+v", got)
	}
}

// TestCountersDisabledCache covers the zero-capacity path: every request is
// a miss, failures are attributed, and the sum still matches the delta.
func TestCountersDisabledCache(t *testing.T) {
	comp := compressSphere(t, 5, 1)
	c := New(0)
	before := c.Stats()
	var ctr Counters
	boom := errors.New("boom")
	if _, err := c.GetOrDecodeProgressiveCounted(Key{Object: 1, LOD: 1}, comp, nil, &ctr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrDecodeProgressiveCounted(Key{Object: 1, LOD: 1}, comp, func() error { return boom }, &ctr); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	delta := c.Stats().Sub(before)
	delta.Evictions, delta.BytesUsed, delta.WarmBytes = 0, 0, 0
	got := sumCounters([]*Counters{&ctr})
	if got != delta {
		t.Errorf("disabled-cache sum %+v != delta %+v", got, delta)
	}
	if got.Misses != 2 || got.DecodeFailures != 1 {
		t.Errorf("got %+v, want 2 misses / 1 failure", got)
	}
}
