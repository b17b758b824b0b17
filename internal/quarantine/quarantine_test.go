package quarantine

import (
	"sync"
	"testing"
	"time"
)

// clock is a controllable time source.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestRegistry returns a breaker keyed like the engine's, by blob ID.
func newTestRegistry(threshold int, cooldown time.Duration) (*Breaker[int64], *clock) {
	c := &clock{t: time.Unix(1000, 0)}
	return NewBreaker[int64](Options{Threshold: threshold, Cooldown: cooldown, Now: c.now}), c
}

func TestHealthyFastPath(t *testing.T) {
	r, _ := newTestRegistry(3, time.Minute)
	k := int64(107)
	if !r.Allow(k) {
		t.Fatal("untracked object blocked")
	}
	r.Success(k) // no-op, must not create a record
	if st := r.Stats(); st.Tracked != 0 {
		t.Fatalf("tracked = %d after healthy traffic", st.Tracked)
	}
}

func TestTripAfterThreshold(t *testing.T) {
	r, _ := newTestRegistry(3, time.Minute)
	k := int64(107)
	for i := 0; i < 2; i++ {
		if tripped := r.Failure(k, "decode error"); tripped {
			t.Fatalf("tripped after %d failures", i+1)
		}
		if !r.Allow(k) {
			t.Fatalf("blocked before threshold (failure %d)", i+1)
		}
	}
	if !r.Failure(k, "decode error #3") {
		t.Fatal("third failure did not trip")
	}
	if r.Allow(k) {
		t.Fatal("open object allowed")
	}
	if r.State(k) != Open {
		t.Fatal("open object not reported open")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	snap := r.Entries()
	if len(snap) != 1 || snap[0].State != Open || snap[0].Reason != "decode error #3" {
		t.Fatalf("entries = %+v", snap)
	}
}

func TestSuccessResetsFailures(t *testing.T) {
	r, _ := newTestRegistry(3, time.Minute)
	k := int64(107)
	r.Failure(k, "transient")
	r.Failure(k, "transient")
	r.Success(k) // resets the count and forgets the record
	if st := r.Stats(); st.Tracked != 0 {
		t.Fatalf("tracked = %d after success", st.Tracked)
	}
	r.Failure(k, "x")
	r.Failure(k, "x")
	if r.State(k) != Closed {
		t.Fatal("tripped despite intervening success")
	}
}

func TestHalfOpenProbation(t *testing.T) {
	r, c := newTestRegistry(1, time.Minute)
	k := int64(203)
	r.Failure(k, "bad blob")
	if r.Allow(k) {
		t.Fatal("open object allowed before cooldown")
	}
	c.advance(61 * time.Second)
	// First caller after cooldown gets the probe; concurrent second caller
	// is still blocked.
	if !r.Allow(k) {
		t.Fatal("probe not admitted after cooldown")
	}
	if r.Allow(k) {
		t.Fatal("second caller admitted during probe")
	}
	// Successful probe reinstates the object fully.
	r.Success(k)
	if !r.Allow(k) || r.State(k) != Closed {
		t.Fatal("object not reinstated after successful probe")
	}
	if st := r.Stats(); st.Reinstated != 1 || st.Probes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailedProbeReopens(t *testing.T) {
	r, c := newTestRegistry(1, time.Minute)
	k := int64(203)
	r.Failure(k, "bad blob")
	c.advance(61 * time.Second)
	if !r.Allow(k) {
		t.Fatal("probe not admitted")
	}
	r.Failure(k, "still bad")
	if r.Allow(k) {
		t.Fatal("allowed right after failed probe")
	}
	// The cooldown restarted at the failed probe.
	c.advance(30 * time.Second)
	if r.Allow(k) {
		t.Fatal("allowed mid-cooldown after failed probe")
	}
	c.advance(31 * time.Second)
	if !r.Allow(k) {
		t.Fatal("second probe not admitted")
	}
}

func TestTripDirect(t *testing.T) {
	r, _ := newTestRegistry(5, time.Minute)
	k := int64(109)
	r.Trip(k, "dropped during salvage")
	if r.Allow(k) {
		t.Fatal("tripped object allowed")
	}
	snap := r.Entries()
	if len(snap) != 1 || snap[0].Reason != "dropped during salvage" {
		t.Fatalf("entries = %+v", snap)
	}
	if st := r.Stats(); st.Trips != 1 || st.Open != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSkipCounter(t *testing.T) {
	r, _ := newTestRegistry(1, time.Minute)
	k := int64(101)
	r.Failure(k, "x")
	for i := 0; i < 4; i++ {
		r.Allow(k)
	}
	if st := r.Stats(); st.Skips != 4 {
		t.Fatalf("skips = %d, want 4", st.Skips)
	}
}

// TestConcurrentAccess hammers one key from many goroutines under -race.
func TestConcurrentAccess(t *testing.T) {
	r, c := newTestRegistry(3, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := int64(g%2*100 + g%3)
			for i := 0; i < 500; i++ {
				if r.Allow(k) {
					if i%3 == 0 {
						r.Failure(k, "f")
					} else {
						r.Success(k)
					}
				}
				if i%50 == 0 {
					c.advance(time.Millisecond)
				}
				r.State(k)
				r.Len()
			}
		}(g)
	}
	wg.Wait()
	r.Entries()
	r.Stats()
}
