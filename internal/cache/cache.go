// Package cache implements the decoding cache of the paper's §5.3: a
// byte-budgeted, thread-safe map from (object ID, LOD) to the decoded faces
// of that object at that LOD. Decoding is compute-intensive, so reusing a
// recently decoded representation — one vessel can be the candidate of
// hundreds of nuclei — dominates the decode cost of distance joins
// (Table 2 of the paper).
//
// The paper evicts in LRU order; this cache evicts by GreedyDual-Size-
// Frequency (GDSF, Cherkasova 1998) instead. Each resident entry carries
// the priority
//
//	H = L + n · (1 + F_top / F)
//
// where n counts the entry's lookups since admission, F is its mesh's face
// count, F_top the object's full-resolution face count, and L the shard's
// aging clock at the entry's last touch; each eviction raises the clock to
// its victim's H. The lowest H goes first, ties to the least recently
// touched entry; the heap re-ranks lazily (see evictLocked). A miss costs
// per entry (a decode and a tree build) more than per byte, so the policy
// keeps many small, often read low-LOD entries over a few large top-LOD
// ones, and a working set that cycles through more than the budget
// (join-cold) keeps part of itself resident, where LRU keeps none.
//
// Concurrent requests for the same key are deduplicated: the first caller
// decodes while the others wait, matching the paper's decoder/geometry-
// computer handshake ("sends a request to the object decoder and waits for
// the data to be decoded").
//
// Two refinements on top of the paper's design:
//
//   - Warm-start decoding (GetOrDecodeProgressiveCounted): a miss at LOD k
//     resumes (ppvp.Compressed.ResumeDecoder) from decoded geometry the
//     shard holds — the object's warm point (see warmPoint) or a resident
//     entry below k — instead of replaying every round from LOD 0. Under
//     Filter-Progressive-Refine a candidate walks the LOD ladder upward, so
//     nearly every refinement decode becomes incremental. RoundsSkipped
//     counts the rounds warm starts did not replay.
//
//   - Sharding: large caches split the key space across independently
//     locked shards (all LODs of one object land in one shard), so decode
//     misses and hits on different objects do not contend on one mutex at
//     high worker counts. Small caches (< minShardedCapacity) stay on a
//     single shard and keep one aging clock for the whole cache.
package cache

import (
	"container/heap"
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
	// built on them since admission, plus WarmBytes.
	BytesUsed int64
	// WarmBytes is the part of BytesUsed charged to warm points whose entry
	// has left the cache.
	WarmBytes int64

	// WarmStarts counts misses served from decoded geometry the cache held
	// (a warm point or a resident lower LOD) instead of decoding from LOD 0.
	// WarmServes, a subset, counts misses served outright from a warm point
	// at the requested LOD, with no round replayed: the misses whose AABB
	// tree is rebuilt from the warm point's tree order in O(n).
	WarmStarts int64
	WarmServes int64
	// RoundsApplied counts decode rounds actually replayed by misses;
	// RoundsSkipped counts rounds that warm starts did not replay.
	// Cold-decoding everything would have cost RoundsApplied +
	// RoundsSkipped.
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
	WarmServes     atomic.Int64
	RoundsApplied  atomic.Int64
	RoundsSkipped  atomic.Int64
	DecodeFailures atomic.Int64
}

// discard stands in for a nil *Counters: what it counts is never read.
var discard Counters

func (s Stats) add(o Stats) Stats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.BytesUsed += o.BytesUsed
	s.WarmBytes += o.WarmBytes
	s.WarmStarts += o.WarmStarts
	s.WarmServes += o.WarmServes
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
		WarmBytes:      s.WarmBytes,
		WarmStarts:     s.WarmStarts - o.WarmStarts,
		WarmServes:     s.WarmServes - o.WarmServes,
		RoundsApplied:  s.RoundsApplied - o.RoundsApplied,
		RoundsSkipped:  s.RoundsSkipped - o.RoundsSkipped,
		DecodeFailures: s.DecodeFailures - o.DecodeFailures,
	}
}

type entry struct {
	key   Key
	mesh  *mesh.Mesh
	bytes int64

	// GDSF state: n lookups since admission, the cost/size term
	// 1 + F_top/F fixed at admission, and the clock and shard tick of the
	// last touch: the true key is (at + n·ratio, touched). The heap orders
	// by the stored key (h, ht), the true key as of an earlier touch. idx is
	// the position in the shard's heap, -1 while in flight and after removal.
	n, ratio, at, h float64
	touched, ht     uint64
	idx             int

	progressive bool // decoded from its blob: may seed a warm start

	ready chan struct{} // closed when mesh is available
	err   error
}

// trueH is e's priority as of its last touch.
func (e *entry) trueH() float64 { return e.at + e.n*e.ratio }

// byPriority is a shard's resident entries as a container/heap min-heap on
// the stored keys: lowest H first, at equal H the least recently touched.
type byPriority []*entry

func (q byPriority) Len() int { return len(q) }
func (q byPriority) Less(i, j int) bool {
	a, b := q[i], q[j]
	return a.h < b.h || (a.h == b.h && a.ht < b.ht)
}
func (q byPriority) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *byPriority) Push(x any) {
	e := x.(*entry)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *byPriority) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	e.idx = -1
	return e
}

// warmPoint is the highest LOD of one object that the progressive path has
// decoded, kept so that a later miss resumes from it: a bare mesh on the
// slices of the entry it came from. While that entry is resident it pays
// for them. When it leaves, the warm point becomes that entry's mesh.Bare —
// which adds the tree order of the entry's AABB tree, if one was built — is
// charged its vertices, faces, tree order and the entry overhead, and joins
// the shard's ring of charged warm points; an entry admitted on its slices
// again (served from it, through Bare) pays once more and rebuilds the same
// tree from that order in O(n).
type warmPoint struct {
	obj        int64
	lod        int
	mesh       *mesh.Mesh // no memos; handed out through Bare only
	payer      *entry     // the resident entry on the slices, nil if charged
	bytes      int64      // the charge while charged
	prev, next *warmPoint // the charged ring, most recent first; nil if not
}

// shard is one independently locked slice of the cache.
type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64 // resident entries plus charged warm points
	entries  map[Key]*entry
	resident byPriority // complete entries, a GDSF min-heap
	clock    float64    // L: the H of the last victim
	tick     uint64     // touch counter, the tie-break
	stats    Stats

	warm      map[int64]*warmPoint
	warmBytes int64     // the charged part of used, at most capacity/2
	charged   warmPoint // sentinel of the charged ring

	evicting func(victim *entry) // test hook: sees each victim first
}

func newShard(capacity int64) *shard {
	s := &shard{
		capacity: capacity,
		entries:  make(map[Key]*entry),
		warm:     make(map[int64]*warmPoint),
	}
	s.charged.prev, s.charged.next = &s.charged, &s.charged
	return s
}

// Cache is a byte-budgeted, sharded GDSF cache of decoded meshes that
// resumes progressive decodes from the geometry it holds.
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
// object — and its warm point — lives in one shard.
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
		e.n++
		s.touchLocked(e)
		s.stats.Hits++
		return e, true
	}
	e := &entry{key: key, n: 1, idx: -1, ready: make(chan struct{})}
	s.entries[key] = e
	s.stats.Misses++
	return e, false
}

// touchLocked stamps e with the clock and the next tick, its true key's
// inputs. The heap is left alone: evictLocked re-ranks a stale root.
func (s *shard) touchLocked(e *entry) {
	s.tick++
	e.at, e.touched = s.clock, s.tick
}

// complete publishes the decode outcome of an owned in-flight entry. top is
// the object's full-resolution face count; below the mesh's own (as when
// the caller has no blob to read it from) it counts as the mesh's. A
// progressive entry becomes its object's warm point if it is the highest
// LOD decoded, or uncharges the warm point whose slices it shares.
func (s *shard) complete(e *entry, m *mesh.Mesh, top int, progressive bool, err error) {
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
	f := max(len(m.Faces), 1)
	e.ratio = 1 + float64(max(top, f))/float64(f)
	s.touchLocked(e)
	e.h, e.ht, e.progressive = e.trueH(), e.touched, progressive
	// A waiter woken above may already be building a memo on m. Listening
	// before the footprint is read means a memo published in between is
	// either in that read or announced to reaccount, never lost.
	m.OnFootprintChange(func() { s.reaccount(e) })
	e.bytes = meshBytes(m)
	heap.Push(&s.resident, e)
	s.used += e.bytes
	// A progressive miss at the warm point's LOD was served from it, so e
	// is on its slices; a higher one replaces it.
	if w := s.warm[e.key.Object]; progressive && (w == nil || w.lod <= e.key.LOD) {
		if w != nil {
			s.unchargeLocked(w)
		}
		if w == nil || w.lod < e.key.LOD {
			w = &warmPoint{obj: e.key.Object, lod: e.key.LOD, mesh: m.Bare()}
			s.warm[e.key.Object] = w
		}
		w.payer = e
	}
	s.evictLocked()
}

// reaccount re-reads the footprint of a resident entry after its mesh built
// (or dropped) a derived memo, charges the difference to the budget, and
// evicts if that overran it. The priority stays as it is: the growing entry
// was just handed to the query building on it, so its H is fresh and the
// victims are the cold entries, as for an admission. Entries already
// evicted are ignored: their meshes, memos included, belong to whichever
// queries still hold them.
func (s *shard) reaccount(e *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.idx < 0 {
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
	s.complete(e, m, 0, false, err)
	return m, err
}

// GetOrDecodeProgressiveCounted returns the cached mesh for key, decoding
// comp progressively on a miss. A miss is served from the object's warm
// point outright when that sits at key.LOD; otherwise it resumes from the
// higher of the warm point (if below key.LOD) and the highest resident
// progressive entry below key.LOD (a warm start), replaying only the
// rounds above it; otherwise it decodes from LOD 0. onMiss, when non-nil,
// runs once before any decode work — the caller's hook for fault injection
// and decode accounting; a non-nil error from it fails the request.
//
// req, when non-nil, receives per-request attribution: every counter the
// call moves on the shard is also added to req, so a caller owning several
// concurrent cache calls (one query) gets exact numbers even while other
// callers hammer the same cache. The decode work of a shared in-flight
// entry is attributed to the caller that performs it; waiters record a hit.
//
// Concurrent misses for different LODs of one object decode side by side,
// each from what the shard held when it began; concurrent callers of the
// same key share a single decode exactly as GetOrDecode does.
func (c *Cache) GetOrDecodeProgressiveCounted(key Key, comp *ppvp.Compressed, onMiss func() error, req *Counters) (*mesh.Mesh, error) {
	if req == nil {
		req = &discard
	}
	s := c.shardFor(key.Object)
	if s.capacity <= 0 {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		req.Misses.Add(1)
		if onMiss != nil {
			if err := onMiss(); err != nil {
				s.noteDecodeFailure()
				req.DecodeFailures.Add(1)
				return nil, err
			}
		}
		m, err := comp.Decode(key.LOD)
		if err != nil {
			s.noteDecodeFailure()
			req.DecodeFailures.Add(1)
		}
		return m, err
	}

	e, found := s.lookupOrReserve(key)
	if found {
		req.Hits.Add(1)
		<-e.ready
		return e.mesh, e.err
	}
	req.Misses.Add(1)

	m, err := func() (m *mesh.Mesh, err error) {
		defer func() {
			if r := recover(); r != nil {
				s.fail(e, r)
				req.DecodeFailures.Add(1)
				panic(r)
			}
		}()
		if onMiss != nil {
			if err := onMiss(); err != nil {
				return nil, err
			}
		}
		return s.decodeWarm(key, comp, req)
	}()
	top := 0
	if err == nil {
		top = comp.TopFaces(key.LOD, len(m.Faces))
	}
	s.complete(e, m, top, true, err)
	if err != nil {
		req.DecodeFailures.Add(1)
	}
	return m, err
}

// decodeWarm performs the miss-path decode from the object's warm point if
// it sits at or below key.LOD, or from a resident progressive entry between
// the two, or from LOD 0.
func (s *shard) decodeWarm(key Key, comp *ppvp.Compressed, req *Counters) (*mesh.Mesh, error) {
	var seed *mesh.Mesh
	from := -1
	s.mu.Lock()
	if w := s.warm[key.Object]; w != nil && w.lod <= key.LOD {
		seed, from = w.mesh, w.lod
	}
	for lod := key.LOD - 1; lod > from; lod-- {
		if e := s.entries[Key{key.Object, lod}]; e != nil && e.idx >= 0 && e.progressive {
			seed, from = e.mesh, lod
			break
		}
	}
	s.mu.Unlock()

	var m *mesh.Mesh
	var starts, serves, applied, skipped int64
	if seed != nil {
		starts, skipped = 1, int64(comp.RoundsForLOD(from))
	}
	if seed != nil && from == key.LOD {
		// Only the warm point sits at key.LOD. Its bare mesh carries the
		// tree order of the last tree built on these slices.
		m, serves = seed.Bare(), 1
	} else {
		var dec *ppvp.Decoder
		var err error
		if seed != nil {
			// A seed that no decode of the blob produces is refused: decode cold.
			dec, err = comp.ResumeDecoder(from, seed)
		}
		if dec == nil {
			starts, skipped = 0, 0
			if dec, err = comp.NewDecoder(); err != nil {
				return nil, err
			}
		}
		if m, err = dec.DecodeTo(key.LOD); err != nil {
			return nil, err
		}
		applied = int64(dec.RoundsApplied()) - skipped
	}

	s.mu.Lock()
	s.stats.WarmStarts += starts
	s.stats.WarmServes += serves
	s.stats.RoundsApplied += applied
	s.stats.RoundsSkipped += skipped
	s.mu.Unlock()
	req.WarmStarts.Add(starts)
	req.WarmServes.Add(serves)
	req.RoundsApplied.Add(applied)
	req.RoundsSkipped.Add(skipped)
	return m, nil
}

// Get returns the cached mesh if present (nil otherwise) without decoding.
func (c *Cache) Get(key Key) *mesh.Mesh {
	s := c.shardFor(key.Object)
	s.mu.Lock()
	e, ok := s.entries[key]
	hit := ok && e.idx >= 0
	if hit {
		e.n++
		s.touchLocked(e)
		s.stats.Hits++
	}
	s.mu.Unlock()
	if !hit {
		return nil
	}
	<-e.ready
	return e.mesh
}

// evictLocked drops the lowest-priority complete entries until the budget
// holds, raising the aging clock to each victim's H so that no priority
// stays out of reach, and once no entry is left the oldest charged warm
// points. A root touched since it was ranked is re-ranked and sifted down
// instead: stored keys never exceed true ones, so a root with a current key
// has the lowest true key, as under eager re-ranking. In-flight entries are
// not in the heap and are never evicted.
func (s *shard) evictLocked() {
	for s.used > s.capacity {
		if len(s.resident) == 0 {
			if s.warmBytes == 0 {
				return
			}
			s.dropWarmLocked(s.charged.prev)
			continue
		}
		victim := s.resident[0]
		if victim.ht != victim.touched {
			victim.h, victim.ht = victim.trueH(), victim.touched
			heap.Fix(&s.resident, 0)
			continue
		}
		if s.evicting != nil {
			s.evicting(victim)
		}
		s.clock = victim.h
		s.removeLocked(victim)
		s.stats.Evictions++
	}
}

// removeLocked drops a complete entry from the shard and releases its charge.
// Leaving the heap sets idx to -1, which tells a late reaccount the entry is
// gone. A warm point on the entry's slices becomes the entry's bare mesh,
// keeping its tree order, and is charged from now on.
func (s *shard) removeLocked(e *entry) {
	heap.Remove(&s.resident, e.idx)
	delete(s.entries, e.key)
	s.used -= e.bytes
	if w := s.warm[e.key.Object]; w != nil && w.payer == e {
		w.mesh = e.mesh.Bare()
		s.chargeLocked(w)
	}
}

// chargeLocked charges w its bare mesh — vertices, faces and tree order,
// 24 B per vertex and 12 + 4 B per face — and puts it at the front of the
// charged ring, dropping the ring's oldest warm points while they hold more
// than half the shard's budget.
func (s *shard) chargeLocked(w *warmPoint) {
	w.payer = nil
	w.bytes = meshBytes(w.mesh)
	s.used += w.bytes
	s.warmBytes += w.bytes
	w.prev, w.next = &s.charged, s.charged.next
	w.prev.next, w.next.prev = w, w
	for s.warmBytes > s.capacity/2 {
		s.dropWarmLocked(s.charged.prev)
	}
}

// unchargeLocked takes w off the budget and the ring if it is charged.
func (s *shard) unchargeLocked(w *warmPoint) {
	if w.prev == nil {
		return
	}
	s.used -= w.bytes
	s.warmBytes -= w.bytes
	w.prev.next, w.next.prev = w.next, w.prev
	w.prev, w.next = nil, nil
}

// dropWarmLocked forgets a charged warm point.
func (s *shard) dropWarmLocked(w *warmPoint) {
	s.unchargeLocked(w)
	delete(s.warm, w.obj)
}

// Clear drops all complete entries and every warm point.
func (c *Cache) Clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		for _, w := range s.warm {
			s.unchargeLocked(w)
		}
		clear(s.warm)
		for _, e := range s.entries {
			if e.idx >= 0 {
				s.removeLocked(e)
			}
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
		st.BytesUsed, st.WarmBytes = s.used, s.warmBytes
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
		n += len(s.resident)
		s.mu.Unlock()
	}
	return n
}
