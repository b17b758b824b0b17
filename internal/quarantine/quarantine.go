// Package quarantine implements circuit breakers for the engine's
// partial-failure tolerance. The engine keys a Breaker[int64] by blob
// (ppvp.Compressed.ID, the same identity as the decode cache's key): a
// stored object whose decode keeps failing (corrupt blob, geometry that
// panics the evaluator) is tripped open so later queries skip it — with a
// recorded reason — instead of burning retries or failing whole joins on it
// forever, whichever dataset holds the blob. The sharded serving tier
// (internal/shard) keys a Breaker[int] by shard index, turning a dead or
// flapping shard into a degraded answer rather than a failed query.
//
// The lifecycle mirrors a classic circuit breaker:
//
//	Closed    healthy; failures accumulate toward Threshold
//	Open      quarantined; Allow reports false until Cooldown elapses
//	HalfOpen  probation; exactly one caller is let through as a probe —
//	          success closes the breaker, failure re-opens it
//
// Breakers are safe for concurrent use. The untracked fast path (no key has
// ever failed) is a single atomic load, so healthy workloads pay nothing.
package quarantine

import (
	"sync"
	"sync/atomic"
	"time"
)

// State is the breaker state of one key.
type State int

const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Options tunes the breaker.
type Options struct {
	// Threshold is the failure count that trips a key open
	// (default 3). Failures reset on any success.
	Threshold int
	// Cooldown is how long an open key stays fully blocked before a
	// half-open probe is allowed (default 30s).
	Cooldown time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

func (o *Options) setDefaults() {
	if o.Threshold <= 0 {
		o.Threshold = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 30 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// EntryOf is a snapshot of one tracked key of a generic Breaker.
type EntryOf[K comparable] struct {
	Key         K
	State       State
	Failures    int
	Reason      string
	TrippedAt   time.Time
	LastFailure time.Time
}

// Stats aggregates breaker counters. The server samples it at scrape time
// to back the threedpro_quarantine_* metric families, so /metrics, /statusz,
// and this snapshot always agree.
type Stats struct {
	// Open and HalfOpen count keys currently in those states.
	Open     int `json:"open"`
	HalfOpen int `json:"half_open"`
	// Tracked counts all keys with breaker records (including closed
	// ones that have failed but not tripped).
	Tracked int `json:"tracked"`
	// Failures counts every recorded failure; Trips every closed→open
	// transition; Probes every half-open admission; Reinstated every
	// successful probe that closed the breaker again.
	Failures   int64 `json:"failures"`
	Trips      int64 `json:"trips"`
	Probes     int64 `json:"probes"`
	Reinstated int64 `json:"reinstated"`
	// Skips counts Allow calls rejected because the key was open.
	Skips int64 `json:"skips"`
}

type object struct {
	state       State
	failures    int
	reason      string
	trippedAt   time.Time
	lastFailure time.Time
	probing     bool // a half-open probe is in flight
}

// Breaker is a generic circuit-breaker table keyed by any comparable
// failure-domain identifier: a blob ID for per-object decode health, a
// shard index for the sharded serving tier.
type Breaker[K comparable] struct {
	opts Options

	// tracked is the fast-path gate: zero means no key has ever
	// failed, so Allow/Success return without locking.
	tracked atomic.Int64

	mu   sync.Mutex
	objs map[K]*object

	failures   int64
	trips      int64
	probes     int64
	reinstated int64
	skips      atomic.Int64
}

// NewBreaker returns a generic breaker with the given options.
func NewBreaker[K comparable](opts Options) *Breaker[K] {
	opts.setDefaults()
	return &Breaker[K]{opts: opts, objs: make(map[K]*object)}
}

// Allow reports whether the key may be processed. Open keys are blocked
// until their cooldown elapses, at which point exactly one caller is
// admitted as a half-open probe; a Success or Failure from that probe
// settles the breaker.
func (b *Breaker[K]) Allow(k K) bool {
	if b.tracked.Load() == 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	o, ok := b.objs[k]
	if !ok || o.state == Closed {
		return true
	}
	now := b.opts.Now()
	if o.state == Open && now.Sub(o.trippedAt) >= b.opts.Cooldown {
		o.state = HalfOpen
		o.probing = false
	}
	if o.state == HalfOpen && !o.probing {
		o.probing = true
		b.probes++
		return true
	}
	b.skips.Add(1)
	return false
}

// Failure records one failure of the key, tripping it open when the
// threshold is reached (or immediately when it was half-open). It returns
// true when this call transitioned the key to Open.
func (b *Breaker[K]) Failure(k K, reason string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	o, ok := b.objs[k]
	if !ok {
		o = &object{}
		b.objs[k] = o
		b.tracked.Add(1)
	}
	b.failures++
	o.failures++
	o.lastFailure = b.opts.Now()
	if o.reason == "" || o.state != Open {
		o.reason = reason
	}
	switch o.state {
	case HalfOpen:
		// Failed probe: straight back to open, cooldown restarts.
		o.state = Open
		o.probing = false
		o.trippedAt = o.lastFailure
		b.trips++
		return true
	case Closed:
		if o.failures >= b.opts.Threshold {
			o.state = Open
			o.trippedAt = o.lastFailure
			b.trips++
			return true
		}
	}
	return false
}

// Trip quarantines the key immediately (used for a salvaged blob that fails
// to decode, where the damage is already proven).
func (b *Breaker[K]) Trip(k K, reason string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	o, ok := b.objs[k]
	if !ok {
		o = &object{}
		b.objs[k] = o
		b.tracked.Add(1)
	}
	if o.state != Open {
		b.trips++
	}
	o.state = Open
	o.probing = false
	o.failures = max(o.failures, b.opts.Threshold)
	o.reason = reason
	o.trippedAt = b.opts.Now()
	o.lastFailure = o.trippedAt
}

// Success records a healthy interaction: a successful half-open probe
// closes the breaker; a success on a closed key resets its failure
// count. Untracked keys return on the atomic fast path.
func (b *Breaker[K]) Success(k K) {
	if b.tracked.Load() == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	o, ok := b.objs[k]
	if !ok {
		return
	}
	switch o.state {
	case HalfOpen:
		b.reinstated++
		fallthrough
	case Closed:
		// Fully healthy again: forget the record so the fast path can
		// recover once every tracked key heals.
		delete(b.objs, k)
		b.tracked.Add(-1)
	case Open:
		// A success while open can only come from a caller that was
		// admitted before the trip; the breaker stays open.
	}
}

// Release cancels an in-flight half-open probe without a verdict (the
// caller was interrupted — query cancelled — before the key could prove
// or disprove itself). The next Allow re-admits a probe. No-op for keys
// in any other state.
func (b *Breaker[K]) Release(k K) {
	if b.tracked.Load() == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if o, ok := b.objs[k]; ok && o.state == HalfOpen {
		o.probing = false
	}
}

// State returns the key's current breaker state (Closed for untracked
// keys), applying the same cooldown transition Allow would: an open key
// whose cooldown has elapsed reports HalfOpen.
func (b *Breaker[K]) State(k K) State {
	if b.tracked.Load() == 0 {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	o, ok := b.objs[k]
	if !ok {
		return Closed
	}
	if o.state == Open && b.opts.Now().Sub(o.trippedAt) >= b.opts.Cooldown {
		return HalfOpen
	}
	return o.state
}

// Len returns the number of keys currently open or half-open.
func (b *Breaker[K]) Len() int {
	if b.tracked.Load() == 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, o := range b.objs {
		if o.state != Closed {
			n++
		}
	}
	return n
}

// Entries returns every tracked key's record, in map order: generic
// breakers cannot order arbitrary keys, so callers sort.
func (b *Breaker[K]) Entries() []EntryOf[K] {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]EntryOf[K], 0, len(b.objs))
	for k, o := range b.objs {
		out = append(out, EntryOf[K]{
			Key: k, State: o.state, Failures: o.failures, Reason: o.reason,
			TrippedAt: o.trippedAt, LastFailure: o.lastFailure,
		})
	}
	return out
}

// Stats returns a snapshot of the counters.
func (b *Breaker[K]) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Stats{
		Tracked:  len(b.objs),
		Failures: b.failures, Trips: b.trips,
		Probes: b.probes, Reinstated: b.reinstated,
		Skips: b.skips.Load(),
	}
	for _, o := range b.objs {
		switch o.state {
		case Open:
			st.Open++
		case HalfOpen:
			st.HalfOpen++
		}
	}
	return st
}
