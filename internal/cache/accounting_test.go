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
// the per-entry overhead, and the budget holds.
func checkAccounting(t *testing.T, c *Cache, when string) {
	t.Helper()
	var total int64
	for i, s := range c.shards {
		s.mu.Lock()
		var sum int64
		for el := s.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			sum += e.mesh.FootprintBytes() + entryOverhead
			if e.bytes != e.mesh.FootprintBytes()+entryOverhead {
				t.Errorf("%s: shard %d entry %v charged %d, mesh reports %d",
					when, i, e.key, e.bytes, e.mesh.FootprintBytes()+entryOverhead)
			}
		}
		if s.used != sum {
			t.Errorf("%s: shard %d used = %d, resident meshes sum to %d", when, i, s.used, sum)
		}
		if s.used > s.capacity {
			t.Errorf("%s: shard %d used %d exceeds capacity %d", when, i, s.used, s.capacity)
		}
		total += s.used
		s.mu.Unlock()
	}
	if got := c.Stats().BytesUsed; got != total {
		t.Errorf("%s: Stats().BytesUsed = %d, shards hold %d", when, got, total)
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
	if got := c.Stats().BytesUsed; got != 0 {
		t.Errorf("BytesUsed after Clear = %d", got)
	}
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
