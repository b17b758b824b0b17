package quarantine

import (
	"testing"
	"time"
)

// TestGenericBreakerIntKeys drives the full lifecycle through a Breaker[int]
// — the shard-health instantiation — proving the generic core behaves
// exactly like the engine's blob-keyed breaker: threshold trip, cooldown,
// half-open probe, reinstatement.
func TestGenericBreakerIntKeys(t *testing.T) {
	c := &clock{t: time.Unix(1000, 0)}
	b := NewBreaker[int](Options{Threshold: 2, Cooldown: time.Minute, Now: c.now})

	if !b.Allow(3) {
		t.Fatal("untracked shard blocked")
	}
	if st := b.State(3); st != Closed {
		t.Fatalf("state = %v, want closed", st)
	}
	b.Failure(3, "conn refused")
	if tripped := b.Failure(3, "conn refused"); !tripped {
		t.Fatal("second failure did not trip with threshold 2")
	}
	if b.Allow(3) {
		t.Fatal("open shard admitted before cooldown")
	}
	if st := b.State(3); st != Open {
		t.Fatalf("state = %v, want open", st)
	}
	if !b.Allow(4) {
		t.Fatal("healthy shard blocked by a neighbor's breaker")
	}

	c.advance(time.Minute)
	if st := b.State(3); st != HalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", st)
	}
	if !b.Allow(3) {
		t.Fatal("no probe admitted after cooldown")
	}
	if b.Allow(3) {
		t.Fatal("second probe admitted while first in flight")
	}
	b.Success(3)
	if st := b.State(3); st != Closed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	if st := b.Stats(); st.Reinstated != 1 || st.Trips != 1 {
		t.Fatalf("stats = %+v, want 1 reinstated / 1 trip", st)
	}
}

// TestGenericBreakerEntries checks the unordered generic snapshot carries
// the key and state verbatim.
func TestGenericBreakerEntries(t *testing.T) {
	b := NewBreaker[int](Options{Threshold: 1, Cooldown: time.Minute})
	b.Failure(2, "rpc timeout")
	es := b.Entries()
	if len(es) != 1 {
		t.Fatalf("entries = %d, want 1", len(es))
	}
	e := es[0]
	if e.Key != 2 || e.State != Open || e.Failures != 1 || e.Reason != "rpc timeout" {
		t.Fatalf("entry = %+v", e)
	}
}
