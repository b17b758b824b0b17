package cache

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mesh"
)

// checkAccounting asserts the cache's books against the meshes it holds:
// each shard's used bytes equal the sum, over its resident entries, of what
// the mesh reports right now (memos built since admission included) plus
// the per-entry overhead, plus the charged warm bytes, and the budget
// holds. Charged warm points are on the charged ring, charged their bare
// geometry, and hold at most half the budget; every uncharged one shares
// its slices with the resident entry at its LOD. It also checks the
// eviction order: the heap holds exactly the resident entries of the map,
// each at the index it records, in heap order, none below the aging clock
// and none with a stored key above its true key.
func checkAccounting(t *testing.T, c *Cache, when string) {
	t.Helper()
	var total, warmTotal int64
	for i, s := range c.shards {
		s.mu.Lock()
		var sum int64
		resident := 0
		for _, e := range s.entries {
			if e.idx >= 0 {
				resident++
			}
		}
		if resident != len(s.resident) {
			t.Errorf("%s: shard %d map holds %d resident entries, heap %d", when, i, resident, len(s.resident))
		}
		for j, e := range s.resident {
			if e.idx != j || s.entries[e.key] != e {
				t.Errorf("%s: shard %d heap slot %d holds %v (idx %d), not the map's resident entry", when, i, j, e.key, e.idx)
			}
			if j > 0 && s.resident.Less(j, (j-1)/2) {
				t.Errorf("%s: shard %d heap slot %d ranks below its parent", when, i, j)
			}
			if e.h < s.clock {
				t.Errorf("%s: shard %d entry %v has H %g below the clock %g", when, i, e.key, e.h, s.clock)
			}
			if e.ht > e.touched || e.h > e.trueH() {
				t.Errorf("%s: shard %d entry %v stored key (%g, %d) above its true key (%g, %d)", when, i, e.key, e.h, e.ht, e.trueH(), e.touched)
			}
			sum += e.mesh.FootprintBytes() + entryOverhead
			if e.bytes != e.mesh.FootprintBytes()+entryOverhead {
				t.Errorf("%s: shard %d entry %v charged %d, mesh reports %d",
					when, i, e.key, e.bytes, e.mesh.FootprintBytes()+entryOverhead)
			}
		}

		var warm int64
		charged := 0
		for obj, w := range s.warm {
			if w.obj != obj {
				t.Errorf("%s: shard %d warm point of object %d filed under %d", when, i, w.obj, obj)
			}
			if w.prev == nil {
				e := s.entries[Key{obj, w.lod}]
				if e == nil || e.idx < 0 || e != w.payer || !shares(w.mesh, e.mesh) {
					t.Errorf("%s: shard %d uncharged warm point %d@%d shares no resident entry's slices", when, i, obj, w.lod)
				}
				continue
			}
			if w.payer != nil {
				t.Errorf("%s: shard %d charged warm point %d@%d still names a payer", when, i, obj, w.lod)
			}
			charged++
			warm += w.bytes
			if bare := int64(len(w.mesh.Vertices))*24 + int64(len(w.mesh.Faces))*12 + entryOverhead; w.bytes != bare {
				t.Errorf("%s: shard %d warm point %d@%d charged %d, its geometry is %d", when, i, obj, w.lod, w.bytes, bare)
			}
		}
		ring := 0
		for w := s.charged.next; w != &s.charged && ring <= charged; w = w.next {
			if w.prev == nil || s.warm[w.obj] != w || w.next.prev != w {
				t.Errorf("%s: shard %d charged ring holds a stale or uncharged warm point %d@%d", when, i, w.obj, w.lod)
			}
			ring++
		}
		if ring != charged {
			t.Errorf("%s: shard %d charged ring holds %d warm points, %d are charged", when, i, ring, charged)
		}
		if s.warmBytes != warm {
			t.Errorf("%s: shard %d warmBytes = %d, charged warm points sum to %d", when, i, s.warmBytes, warm)
		}
		if warm > s.capacity/2 {
			t.Errorf("%s: shard %d charged warm bytes %d exceed half the capacity %d", when, i, warm, s.capacity)
		}
		if s.used != sum+warm {
			t.Errorf("%s: shard %d used = %d, resident meshes sum to %d and warm points to %d", when, i, s.used, sum, warm)
		}
		if s.used > s.capacity {
			t.Errorf("%s: shard %d used %d exceeds capacity %d", when, i, s.used, s.capacity)
		}
		total += s.used
		warmTotal += warm
		s.mu.Unlock()
	}
	if got := c.Stats(); got.BytesUsed != total || got.WarmBytes != warmTotal {
		t.Errorf("%s: Stats() BytesUsed %d, WarmBytes %d; shards hold %d and %d", when, got.BytesUsed, got.WarmBytes, total, warmTotal)
	}
}

// shares reports whether a and b are views of the same vertex and face
// arrays.
func shares(a, b *mesh.Mesh) bool {
	return sameArray(a.Vertices, b.Vertices) && sameArray(a.Faces, b.Faces)
}

func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// checkCleared asserts that Clear left no entry and no warm point behind.
func checkCleared(t *testing.T, c *Cache) {
	t.Helper()
	for i, s := range c.shards {
		s.mu.Lock()
		if len(s.resident) != 0 || len(s.warm) != 0 || s.used != 0 {
			t.Errorf("shard %d after Clear: %d resident entries, %d warm points, %d B used", i, len(s.resident), len(s.warm), s.used)
		}
		s.mu.Unlock()
	}
}

// buildMemo materializes one of the derived memos on a (possibly shared,
// possibly already evicted) cached mesh, the way a query would.
func buildMemo(m *mesh.Mesh, which int) {
	switch which {
	case 0:
		m.SoA()
	case 1:
		m.Tree()
	case 2:
		m.Groups(func() [][]int32 {
			half := int32(m.NumFaces() / 2)
			var a, b []int32
			for f := int32(0); f < int32(m.NumFaces()); f++ {
				if f < half {
					a = append(a, f)
				} else {
					b = append(b, f)
				}
			}
			return [][]int32{a, b}
		})
	}
}

// TestAccountingTracksMemos drives a small cache through a random
// interleaving of hits, decodes, memo builds on the returned meshes,
// invalidations and the evictions all of those cause, checking the books
// after every step.
func TestAccountingTracksMemos(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Room for three or four fully accelerated level-1 spheres: memo builds
	// regularly push the cache over budget and force evictions.
	c := New(100 << 10)
	held := map[Key]*mesh.Mesh{} // meshes a "query" still holds, evicted or not

	for step := 0; step < 4000; step++ {
		key := Key{Object: int64(rng.Intn(12)), LOD: rng.Intn(2)}
		switch op := rng.Intn(10); {
		case op < 4:
			m, err := c.GetOrDecode(key, func() (*mesh.Mesh, error) {
				return mesh.Icosphere(1+float64(key.Object), 1+key.LOD), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			held[key] = m
		case op < 8:
			if m := held[key]; m != nil {
				buildMemo(m, rng.Intn(3))
			}
		case op < 9:
			if m := c.Get(key); m != nil {
				buildMemo(m, rng.Intn(3))
			}
		default:
			c.Clear()
		}
		checkAccounting(t, c, "step")
		if t.Failed() {
			t.Fatalf("books broke at step %d", step)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Error("the run never evicted; the budget is too generous to test anything")
	}
	// What the books were checked against includes the block lanes of every
	// lane set a memo holds: the SoA's own, and those of each group view.
	for key, m := range held {
		bare := int64(len(m.Vertices))*24 + int64(len(m.Faces))*12
		if c.Get(key) != m || m.FootprintBytes() == bare {
			continue // evicted, replaced or without memos
		}
		soa := m.SoA()
		if soa.BlockBytes() == 0 || soa.Bytes() != int64(15*soa.Len())*8+soa.BlockBytes() {
			t.Fatalf("%v: SoA of %d faces reports %d B, %d of them block lanes", key, soa.Len(), soa.Bytes(), soa.BlockBytes())
		}
		if m.FootprintBytes() < bare+soa.Bytes() {
			t.Fatalf("%v: footprint %d leaves out part of the %d B of lanes and block lanes", key, m.FootprintBytes(), soa.Bytes())
		}
		checkAccounting(t, c, "after SoA on a resident mesh")
	}

	c.Clear()
	checkAccounting(t, c, "after Clear")
	checkCleared(t, c)
}

// TestMemoGrowthEvicts pins the budget rule in isolation: a mesh admitted
// bare fits, its accelerators push the cache over, and the cold entry pays.
func TestMemoGrowthEvicts(t *testing.T) {
	bare := meshBytes(mesh.Icosphere(1, 2))
	accelerated := mesh.Icosphere(1, 2)
	accelerated.Tree()
	// Two bare meshes fit, and so does an accelerated one alone — but not an
	// accelerated one next to a bare one.
	c := New(meshBytes(accelerated) + bare/2)
	get := func(obj int64) *mesh.Mesh {
		m, err := c.GetOrDecode(Key{Object: obj}, func() (*mesh.Mesh, error) { return mesh.Icosphere(1, 2), nil })
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	get(1)
	hot := get(2)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want both bare meshes resident", c.Len())
	}
	hot.Tree()
	checkAccounting(t, c, "after tree build")
	if c.Get(Key{Object: 1}) != nil {
		t.Error("cold entry survived although the hot entry's tree overran the budget")
	}
	if c.Get(Key{Object: 2}) != hot {
		t.Error("the entry that grew was evicted instead of the cold one")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", c.Stats().Evictions)
	}
}

// TestConcurrentMemoBuildsKeepBooks hammers one sharded cache from many
// goroutines — hits, misses and first builds of every memo racing on shared
// meshes — and checks the books once quiescent. Run under -race.
func TestConcurrentMemoBuildsKeepBooks(t *testing.T) {
	c := NewSharded(1<<20, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				key := Key{Object: int64(rng.Intn(24))}
				m, err := c.GetOrDecode(key, func() (*mesh.Mesh, error) {
					return mesh.Icosphere(1, 2), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				buildMemo(m, rng.Intn(3))
			}
		}(g)
	}
	wg.Wait()
	checkAccounting(t, c, "quiescent")
}
