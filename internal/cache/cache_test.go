package cache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mesh"
)

func sphere(r float64) *mesh.Mesh { return mesh.Icosphere(r, 1) }

func TestHitMiss(t *testing.T) {
	c := New(1 << 20)
	decodes := 0
	decode := func() (*mesh.Mesh, error) { decodes++; return sphere(1), nil }

	m1, err := c.GetOrDecode(Key{1, 0}, decode)
	if err != nil || m1 == nil {
		t.Fatalf("first get: %v", err)
	}
	m2, err := c.GetOrDecode(Key{1, 0}, decode)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("cache returned a different mesh")
	}
	if decodes != 1 {
		t.Errorf("decodes = %d, want 1", decodes)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.BytesUsed <= 0 {
		t.Error("BytesUsed not tracked")
	}
}

func TestDistinctLODsAreDistinctEntries(t *testing.T) {
	c := New(1 << 20)
	for lod := 0; lod < 3; lod++ {
		lod := lod
		if _, err := c.GetOrDecode(Key{7, lod}, func() (*mesh.Mesh, error) {
			return sphere(float64(lod + 1)), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
}

func TestEviction(t *testing.T) {
	one := meshBytes(sphere(1))
	c := New(3*one + 10) // room for 3 spheres
	for i := int64(0); i < 5; i++ {
		if _, err := c.GetOrDecode(Key{i, 0}, func() (*mesh.Mesh, error) { return sphere(1), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > 3 {
		t.Errorf("Len = %d after eviction, want <= 3", c.Len())
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	// Equal, single-use entries tie on H and leave least recently touched
	// first, so the most recent survive.
	if c.Get(Key{4, 0}) == nil {
		t.Error("most recent entry evicted")
	}
	if c.Get(Key{0, 0}) != nil {
		t.Error("oldest entry survived")
	}
}

func TestLRUOrderUpdatedByAccess(t *testing.T) {
	one := meshBytes(sphere(1))
	c := New(2*one + 10)
	c.GetOrDecode(Key{1, 0}, func() (*mesh.Mesh, error) { return sphere(1), nil })
	c.GetOrDecode(Key{2, 0}, func() (*mesh.Mesh, error) { return sphere(1), nil })
	// Touch 1: its second lookup raises its H above 2's, so 2 is the victim.
	c.Get(Key{1, 0})
	c.GetOrDecode(Key{3, 0}, func() (*mesh.Mesh, error) { return sphere(1), nil })
	if c.Get(Key{1, 0}) == nil {
		t.Error("recently touched entry evicted")
	}
	if c.Get(Key{2, 0}) != nil {
		t.Error("LRU entry survived")
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	calls := 0
	decode := func() (*mesh.Mesh, error) { calls++; return nil, boom }
	if _, err := c.GetOrDecode(Key{9, 0}, decode); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	ok := func() (*mesh.Mesh, error) { calls++; return sphere(1), nil }
	if m, err := c.GetOrDecode(Key{9, 0}, ok); err != nil || m == nil {
		t.Fatalf("retry after error failed: %v", err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
}

func TestZeroCapacityDisablesCaching(t *testing.T) {
	c := New(0)
	calls := 0
	decode := func() (*mesh.Mesh, error) { calls++; return sphere(1), nil }
	c.GetOrDecode(Key{1, 0}, decode)
	c.GetOrDecode(Key{1, 0}, decode)
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (cache disabled)", calls)
	}
	if c.Len() != 0 {
		t.Error("disabled cache stored entries")
	}
}

func TestSingleFlightDeduplication(t *testing.T) {
	c := New(1 << 20)
	var decodes atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c.GetOrDecode(Key{42, 1}, func() (*mesh.Mesh, error) {
				decodes.Add(1)
				return sphere(2), nil
			})
		}()
	}
	close(start)
	wg.Wait()
	if n := decodes.Load(); n != 1 {
		t.Errorf("decodes = %d, want 1 (single-flight)", n)
	}
}

func TestClear(t *testing.T) {
	c := New(1 << 20)
	c.GetOrDecode(Key{1, 0}, func() (*mesh.Mesh, error) { return sphere(1), nil })
	c.Clear()
	if c.Len() != 0 {
		t.Error("Clear left entries")
	}
	if c.Stats().BytesUsed != 0 {
		t.Error("Clear left bytes")
	}
}

func TestConcurrentMixedAccess(t *testing.T) {
	c := New(10 * meshBytes(sphere(1)))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := Key{int64(i % 20), g % 3}
				m, err := c.GetOrDecode(key, func() (*mesh.Mesh, error) { return sphere(1), nil })
				if err != nil || m == nil {
					t.Errorf("GetOrDecode: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDecodePanicDoesNotPoisonKey: a decode that panics must unblock
// concurrent waiters with an error and leave the key retryable — not a
// permanently hung entry.
func TestDecodePanicDoesNotPoisonKey(t *testing.T) {
	c := New(1 << 20)
	key := Key{7, 1}

	entered := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		<-entered
		// Second caller for the same key: must not block forever.
		_, err := c.GetOrDecode(key, func() (*mesh.Mesh, error) { return sphere(1), nil })
		waiterDone <- err
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		c.GetOrDecode(key, func() (*mesh.Mesh, error) {
			close(entered)
			time.Sleep(10 * time.Millisecond) // let the waiter attach
			panic("decode exploded")
		})
	}()

	// The waiter either attached to the failed entry (error) or arrived
	// after cleanup and decoded fresh (nil); both are fine — what must
	// never happen is a hang.
	select {
	case <-waiterDone:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter deadlocked on panicked decode")
	}

	// The key must be retryable afterwards.
	m, err := c.GetOrDecode(key, func() (*mesh.Mesh, error) { return sphere(1), nil })
	if err != nil || m == nil {
		t.Fatalf("retry after panic: %v", err)
	}
}
