// Package cache implements the LRU decoding cache of the paper's §5.3: a
// byte-budgeted, thread-safe map from (object ID, LOD) to the decoded faces
// of that object at that LOD. Decoding is compute-intensive, so reusing a
// recently decoded representation — one vessel can be the candidate of
// hundreds of nuclei — dominates the decode cost of distance joins
// (Table 2 of the paper).
//
// Concurrent requests for the same key are deduplicated: the first caller
// decodes while the others wait, matching the paper's decoder/geometry-
// computer handshake ("sends a request to the object decoder and waits for
// the data to be decoded").
//
// Two refinements on top of the paper's design:
//
//   - Warm-start decoding (GetOrDecodeProgressiveCounted): the cache retains one
//     progressive ppvp.Decoder per object, so a miss at LOD k resumes from
//     the highest previously decoded LOD instead of replaying every round
//     from LOD 0. Under Filter-Progressive-Refine a candidate walks the LOD
//     ladder upward, so nearly every refinement decode becomes incremental.
//     The win is visible in Stats: RoundsSkipped counts rounds the warm
//     starts did not replay.
//
//   - Sharding: large caches split the key space across independently
//     locked shards (all LODs of one object land in one shard), so decode
//     misses and hits on different objects do not contend on one mutex at
//     high worker counts. Small caches (< minShardedCapacity) stay on a
//     single shard and keep exact global LRU semantics.
package cache

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mesh"
	"repro/internal/ppvp"
)

// Key identifies a decoded representation: one object at one LOD.
type Key struct {
	Object int64
	LOD    int
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// BytesUsed is the current footprint of cached meshes, including every
	// derived memo (triangle slice, SoA lanes, AABB tree, partition groups)
	// built on them since admission.
	BytesUsed int64

	// WarmStarts counts misses served by resuming a retained progressive
	// decoder instead of decoding from LOD 0.
	WarmStarts int64
	// RoundsApplied counts decode rounds actually replayed by misses;
	// RoundsSkipped counts rounds that warm starts reused from retained
	// decoder state. Cold-decoding everything would have cost
	// RoundsApplied + RoundsSkipped.
	RoundsApplied int64
	RoundsSkipped int64

	// DecodeFailures counts miss-path decodes that returned an error or
	// panicked. Failures are never cached, so each retry of a bad object
	// counts again — a growing value under steady load is the cache-level
	// symptom of corrupt or hostile blobs.
	DecodeFailures int64
}

// Counters is a per-request attribution sink: a caller that owns a unit of
// work spanning many cache calls (one query) passes the same *Counters into
// each GetOrDecodeProgressiveCounted call, and the cache increments it at
// exactly the points it increments its own shard counters. Summing every
// concurrent caller's Counters therefore reproduces the cache-wide Stats
// delta exactly — no global-snapshot diffing, no bleed between concurrent
// callers. All fields are atomics; a Counters value is safe for the many
// workers of one query to share.
type Counters struct {
	Hits           atomic.Int64
	Misses         atomic.Int64
	WarmStarts     atomic.Int64
	RoundsApplied  atomic.Int64
	RoundsSkipped  atomic.Int64
	DecodeFailures atomic.Int64
}

func (s Stats) add(o Stats) Stats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.BytesUsed += o.BytesUsed
	s.WarmStarts += o.WarmStarts
	s.RoundsApplied += o.RoundsApplied
	s.RoundsSkipped += o.RoundsSkipped
	s.DecodeFailures += o.DecodeFailures
	return s
}

// Sub returns s - o field-wise; used to attribute a window of cache activity
// (for example one query) out of the engine-lifetime counters.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:           s.Hits - o.Hits,
		Misses:         s.Misses - o.Misses,
		Evictions:      s.Evictions - o.Evictions,
		BytesUsed:      s.BytesUsed,
		WarmStarts:     s.WarmStarts - o.WarmStarts,
		RoundsApplied:  s.RoundsApplied - o.RoundsApplied,
		RoundsSkipped:  s.RoundsSkipped - o.RoundsSkipped,
		DecodeFailures: s.DecodeFailures - o.DecodeFailures,
	}
}

type entry struct {
	key   Key
	mesh  *mesh.Mesh
	bytes int64
	elem  *list.Element

	ready chan struct{} // closed when mesh is available
	err   error
}

// decoderSlot retains one object's progressive decoder between misses. The
// slot mutex is the per-object single-flight: concurrent misses at different
// LODs of the same object serialize here, each advancing (or replacing) the
// retained decoder.
type decoderSlot struct {
	mu   sync.Mutex
	dec  *ppvp.Decoder
	elem *list.Element // position in the shard's decoder LRU
	refs int           // checked-out count; slots with refs > 0 are not evicted
}

// maxDecodersPerShard bounds the decoder pool: each retained decoder holds
// the mesh state of its current LOD, so the pool is capped and evicted LRU.
const maxDecodersPerShard = 64

// shard is one independently locked slice of the cache.
type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[Key]*entry
	lru      *list.List // front = most recent; stores *entry
	stats    Stats

	decoders map[int64]*decoderSlot
	decLRU   *list.List // front = most recent; stores *decoderSlot keyed back by object
	decObj   map[*decoderSlot]int64
}

func newShard(capacity int64) *shard {
	return &shard{
		capacity: capacity,
		entries:  make(map[Key]*entry),
		lru:      list.New(),
		decoders: make(map[int64]*decoderSlot),
		decLRU:   list.New(),
		decObj:   make(map[*decoderSlot]int64),
	}
}

// Cache is a byte-budgeted, sharded LRU cache of decoded meshes with a
// per-object progressive decoder pool.
type Cache struct {
	shards []*shard
	mask   uint64
}

// minShardedCapacity is the budget below which the cache stays on a single
// shard: sharding a tiny cache would split the budget into slices smaller
// than one mesh and evict everything immediately.
const minShardedCapacity = 16 << 20

// defaultShards is the shard count for large caches (power of two).
const defaultShards = 16

// New returns a cache with the given capacity in (estimated) bytes. A
// capacity ≤ 0 disables caching: every GetOrDecode call decodes.
func New(capacity int64) *Cache {
	n := defaultShards
	if capacity < minShardedCapacity {
		n = 1
	}
	return NewSharded(capacity, n)
}

// NewSharded returns a cache with the byte budget split evenly across the
// given number of shards (rounded up to a power of two, min 1). All LODs of
// one object share a shard.
func NewSharded(capacity int64, shards int) *Cache {
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]*shard, n), mask: uint64(n - 1)}
	per := capacity / int64(n)
	if capacity > 0 && per <= 0 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = newShard(per)
	}
	return c
}

// NumShards returns the shard count.
func (c *Cache) NumShards() int { return len(c.shards) }

// shardFor hashes the object ID (not the LOD) so that every LOD of one
// object — and its decoder slot — lives in one shard.
func (c *Cache) shardFor(object int64) *shard {
	h := uint64(object)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return c.shards[h&c.mask]
}

// entryOverhead is the fixed charge per cached entry on top of its mesh.
const entryOverhead = 64

// meshBytes is what one cached mesh is charged right now: its vertices and
// faces plus every derived memo currently materialized on it. The charge is
// not frozen at admission — refinement accelerators (SoA lanes, AABB tree,
// partition groups) are built on the cached mesh by the first query that
// needs them, several times the size of the mesh itself, and stay for as
// long as the entry does. The mesh announces each such change (see
// shard.reaccount), so the budget governs what the cache really pins.
func meshBytes(m *mesh.Mesh) int64 {
	return m.FootprintBytes() + entryOverhead
}

// lookupOrReserve returns the existing entry for key (found=true) or
// reserves a new in-flight entry owned by the caller (found=false).
func (s *shard) lookupOrReserve(key Key) (*entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
		s.stats.Hits++
		return e, true
	}
	e := &entry{key: key, ready: make(chan struct{})}
	s.entries[key] = e
	s.stats.Misses++
	return e, false
}

// complete publishes the decode outcome of an owned in-flight entry.
func (s *shard) complete(e *entry, m *mesh.Mesh, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.mesh, e.err = m, err
	close(e.ready)
	if err != nil {
		// Do not cache failures.
		s.stats.DecodeFailures++
		delete(s.entries, e.key)
		return
	}
	e.bytes = meshBytes(m)
	e.elem = s.lru.PushFront(e)
	s.used += e.bytes
	m.OnFootprintChange(func() { s.reaccount(e) })
	s.evictLocked()
}

// reaccount re-reads the footprint of a resident entry after its mesh built
// (or dropped) a derived memo, charges the difference to the budget, and
// evicts if that overran it. The growing entry is at or near the LRU front —
// it was just handed to the query building on it — so the victims are the
// cold entries, as for an admission. Entries already evicted are ignored:
// their meshes, memos included, belong to whichever queries still hold them.
func (s *shard) reaccount(e *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.elem == nil {
		return
	}
	now := meshBytes(e.mesh)
	s.used += now - e.bytes
	e.bytes = now
	s.evictLocked()
}

// fail aborts an owned in-flight entry after a panic in decode.
func (s *shard) fail(e *entry, r any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.err = fmt.Errorf("cache: decode panicked: %v", r)
	close(e.ready)
	s.stats.DecodeFailures++
	delete(s.entries, e.key)
}

// noteDecodeFailure records a decode failure on the cache-disabled path,
// where no entry lifecycle runs.
func (s *shard) noteDecodeFailure() {
	s.mu.Lock()
	s.stats.DecodeFailures++
	s.mu.Unlock()
}

// GetOrDecode returns the cached mesh for key, or runs decode to produce it.
// Concurrent callers of the same key share a single decode. The returned
// mesh must be treated as read-only.
func (c *Cache) GetOrDecode(key Key, decode func() (*mesh.Mesh, error)) (*mesh.Mesh, error) {
	s := c.shardFor(key.Object)
	if s.capacity <= 0 {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		m, err := decode()
		if err != nil {
			s.noteDecodeFailure()
		}
		return m, err
	}

	e, found := s.lookupOrReserve(key)
	if found {
		<-e.ready
		return e.mesh, e.err
	}

	// If decode panics, fail the entry before letting the panic continue:
	// otherwise its ready channel never closes and every later request for
	// this key blocks forever.
	m, err := func() (m *mesh.Mesh, err error) {
		defer func() {
			if r := recover(); r != nil {
				s.fail(e, r)
				panic(r)
			}
		}()
		return decode()
	}()
	s.complete(e, m, err)
	return m, err
}

// GetOrDecodeProgressiveCounted returns the cached mesh for key, decoding
// through the per-object progressive decoder pool on a miss: if a retained
// decoder for key.Object sits at a LOD ≤ key.LOD, decoding resumes from its
// state (a warm start) instead of replaying every round from LOD 0. onMiss,
// when non-nil, runs once before any decode work — the caller's hook for
// fault injection and decode accounting; a non-nil error from it fails the
// request without touching the decoder pool.
//
// req, when non-nil, receives per-request attribution: every counter the
// call moves on the shard is also added to req, so a caller owning several
// concurrent cache calls (one query) gets exact numbers even while other
// callers hammer the same cache. The decode work of a shared in-flight
// entry is attributed to the caller that performs it; waiters record a hit.
//
// Concurrent misses for different LODs of one object serialize on the
// object's decoder slot; concurrent callers of the same key share a single
// decode exactly as GetOrDecode does.
func (c *Cache) GetOrDecodeProgressiveCounted(key Key, comp *ppvp.Compressed, onMiss func() error, req *Counters) (*mesh.Mesh, error) {
	s := c.shardFor(key.Object)
	if s.capacity <= 0 {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		req.miss()
		if onMiss != nil {
			if err := onMiss(); err != nil {
				s.noteDecodeFailure()
				req.decodeFailure()
				return nil, err
			}
		}
		m, err := comp.Decode(key.LOD)
		if err != nil {
			s.noteDecodeFailure()
			req.decodeFailure()
		}
		return m, err
	}

	e, found := s.lookupOrReserve(key)
	if found {
		req.hit()
		<-e.ready
		return e.mesh, e.err
	}
	req.miss()

	m, err := func() (m *mesh.Mesh, err error) {
		defer func() {
			if r := recover(); r != nil {
				s.fail(e, r)
				req.decodeFailure()
				panic(r)
			}
		}()
		if onMiss != nil {
			if err := onMiss(); err != nil {
				return nil, err
			}
		}
		return s.decodeWarm(c, key, comp, req)
	}()
	s.complete(e, m, err)
	if err != nil {
		req.decodeFailure()
	}
	return m, err
}

// hit/miss/decodeFailure are nil-safe increment helpers so the cache's
// accounting points stay one-liners.
func (r *Counters) hit() {
	if r != nil {
		r.Hits.Add(1)
	}
}

func (r *Counters) miss() {
	if r != nil {
		r.Misses.Add(1)
	}
}

func (r *Counters) decodeFailure() {
	if r != nil {
		r.DecodeFailures.Add(1)
	}
}

// decodeWarm performs the miss-path decode through the shard's decoder pool.
func (s *shard) decodeWarm(c *Cache, key Key, comp *ppvp.Compressed, req *Counters) (*mesh.Mesh, error) {
	slot := s.checkoutDecoder(key.Object)
	defer s.releaseDecoder(slot)

	slot.mu.Lock()
	defer slot.mu.Unlock()

	warm := slot.dec != nil && slot.dec.CanAdvanceTo(key.LOD)
	var dec *ppvp.Decoder
	if warm {
		dec = slot.dec
	} else {
		var err error
		dec, err = comp.NewDecoder()
		if err != nil {
			return nil, err
		}
	}

	before := dec.RoundsApplied()
	m, err := dec.DecodeTo(key.LOD)
	if err != nil {
		// The decoder state may be mid-round; drop it rather than resume it.
		if warm {
			slot.dec = nil
		}
		return nil, err
	}

	s.mu.Lock()
	s.stats.RoundsApplied += int64(dec.RoundsApplied() - before)
	if warm {
		s.stats.WarmStarts++
		s.stats.RoundsSkipped += int64(before)
	}
	s.mu.Unlock()
	if req != nil {
		req.RoundsApplied.Add(int64(dec.RoundsApplied() - before))
		if warm {
			req.WarmStarts.Add(1)
			req.RoundsSkipped.Add(int64(before))
		}
	}

	// Retain whichever decoder state reaches furthest: a cold decode below
	// the retained decoder's LOD must not clobber the more advanced state.
	if slot.dec == nil || dec.RoundsApplied() >= slot.dec.RoundsApplied() {
		slot.dec = dec
	}
	return m, nil
}

// checkoutDecoder pins (creating if needed) the decoder slot for an object.
func (s *shard) checkoutDecoder(object int64) *decoderSlot {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.decoders[object]
	if !ok {
		slot = &decoderSlot{}
		s.decoders[object] = slot
		s.decObj[slot] = object
		slot.elem = s.decLRU.PushFront(slot)
		s.evictDecodersLocked()
	} else {
		s.decLRU.MoveToFront(slot.elem)
	}
	slot.refs++
	return slot
}

// releaseDecoder unpins a checked-out slot.
func (s *shard) releaseDecoder(slot *decoderSlot) {
	s.mu.Lock()
	slot.refs--
	s.mu.Unlock()
}

// evictDecodersLocked trims the decoder pool to its cap, skipping slots that
// are currently checked out.
func (s *shard) evictDecodersLocked() {
	for elem := s.decLRU.Back(); elem != nil && s.decLRU.Len() > maxDecodersPerShard; {
		prev := elem.Prev()
		slot := elem.Value.(*decoderSlot)
		if slot.refs == 0 {
			s.decLRU.Remove(elem)
			obj := s.decObj[slot]
			delete(s.decoders, obj)
			delete(s.decObj, slot)
		}
		elem = prev
	}
}

// dropDecoderLocked removes an object's decoder slot if it is not in use.
func (s *shard) dropDecoderLocked(object int64) {
	if slot, ok := s.decoders[object]; ok && slot.refs == 0 {
		s.decLRU.Remove(slot.elem)
		delete(s.decoders, object)
		delete(s.decObj, slot)
	}
}

// Get returns the cached mesh if present (nil otherwise) without decoding.
func (c *Cache) Get(key Key) *mesh.Mesh {
	s := c.shardFor(key.Object)
	s.mu.Lock()
	e, ok := s.entries[key]
	hit := ok && e.elem != nil
	if hit {
		s.lru.MoveToFront(e.elem)
		s.stats.Hits++
	}
	s.mu.Unlock()
	if !hit {
		return nil
	}
	<-e.ready
	return e.mesh
}

// evictLocked drops least-recently-used complete entries until the budget
// holds. In-flight entries (elem == nil) are never evicted.
func (s *shard) evictLocked() {
	for s.used > s.capacity {
		back := s.lru.Back()
		if back == nil {
			return
		}
		s.removeLocked(back.Value.(*entry))
		s.stats.Evictions++
	}
}

// removeLocked drops a complete entry from the shard and releases its charge.
// Clearing elem is what tells a late reaccount the entry is gone.
func (s *shard) removeLocked(e *entry) {
	s.lru.Remove(e.elem)
	e.elem = nil
	delete(s.entries, e.key)
	s.used -= e.bytes
}

// Clear drops all complete entries and every idle retained decoder.
func (c *Cache) Clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			if e.elem != nil {
				s.removeLocked(e)
			}
		}
		for obj := range s.decoders {
			s.dropDecoderLocked(obj)
		}
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the counters, aggregated over shards.
func (c *Cache) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st := s.stats
		st.BytesUsed = s.used
		s.mu.Unlock()
		out = out.add(st)
	}
	return out
}

// Len returns the number of complete cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// NumDecoders returns the number of retained progressive decoders.
func (c *Cache) NumDecoders() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.decLRU.Len()
		s.mu.Unlock()
	}
	return n
}
