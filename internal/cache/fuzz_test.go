package cache

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/ppvp"
)

// FuzzCachePolicy drives a small single-shard cache through a fuzzed
// sequence of lookups, memo builds and clears, two bytes per step (the
// operation, then the key or the held mesh it acts on), and checks the
// books, the warm points and the eviction heap after every step
// (checkAccounting), and that a Clear leaves nothing behind. Every victim
// must be the one an eagerly ranked heap would pick: the resident entry
// with the lowest true key, recomputed here from each entry's last touch.
// One blob is honest; the other's header overstates its face total, so its
// entries carry the largest cost term TopFaces allows. A step may run a
// second step from inside its miss hook, while its own entry is in flight:
// that entry must survive whatever the inner step evicts.
func FuzzCachePolicy(f *testing.F) {
	honest := compressSphere(f, 1, 2)
	hostile, err := ppvp.FromBytes(withFaceTotal(honest.Bytes(), 1<<28))
	if err != nil {
		f.Fatal(err)
	}
	blobs := []*ppvp.Compressed{honest, hostile}
	lods := honest.NumLODs()
	full, err := honest.Decode(honest.MaxLOD())
	if err != nil {
		f.Fatal(err)
	}
	full.Tree()
	budget := 3 * meshBytes(full)

	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 6, 1, 12, 1, 18, 1, 0, 1, 6, 4, 0, 4, 1, 1, 24, 1, 30})
	f.Add([]byte{0, 1, 0, 2, 3, 1, 4, 0, 2, 3, 2, 9, 5, 0, 1, 3, 4, 0})
	f.Add([]byte{2, 0, 2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 4, 0, 4, 1, 4, 2, 3, 0})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		c := New(budget)
		s := c.shards[0]
		s.evicting = func(victim *entry) {
			h := func(e *entry) float64 { return e.at + float64(e.n)*e.ratio }
			want := victim
			for _, e := range s.resident {
				if h(e) < h(want) || (h(e) <= h(want) && e.touched < want.touched) {
					want = e
				}
			}
			if want != victim {
				t.Errorf("evicted %v (H %g), the eager argmin is %v (H %g)", victim.key, h(victim), want.key, h(want))
			}
		}
		var held []*mesh.Mesh
		keyOf := func(arg byte) Key {
			return Key{Object: int64(arg % 6), LOD: int(arg/6) % lods}
		}
		hold := func(m *mesh.Mesh, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if m != nil {
				held = append(held, m)
			}
		}
		progressive := func(key Key, onMiss func() error) {
			hold(c.GetOrDecodeProgressiveCounted(key, blobs[key.Object%2], onMiss, nil))
		}
		var step func(op, arg byte)
		step = func(op, arg byte) {
			key := keyOf(arg)
			switch op % 6 {
			case 0:
				hold(c.GetOrDecode(key, func() (*mesh.Mesh, error) { return mesh.Icosphere(1, 1), nil }))
			case 1:
				progressive(key, nil)
			case 2:
				// A miss whose hook admits another object and builds its
				// tree, over budget, while key is in flight.
				other := Key{Object: (key.Object + 1) % 6, LOD: key.LOD}
				progressive(key, func() error {
					step(1, byte(other.Object)+6*byte(other.LOD))
					step(4, byte(len(held)-1))
					s := c.shardFor(key.Object)
					s.mu.Lock()
					e, ok := s.entries[key]
					inFlight := ok && e.idx < 0 && e.mesh == nil
					s.mu.Unlock()
					if !inFlight {
						t.Fatalf("entry %v was evicted or published while in flight", key)
					}
					return nil
				})
			case 3:
				if m := c.Get(key); m != nil {
					held = append(held, m)
				}
			case 4:
				if len(held) > 0 {
					held[int(arg)%len(held)].Tree()
				}
			case 5:
				c.Clear()
				checkCleared(t, c)
			}
			checkAccounting(t, c, "step")
		}
		for i := 0; i+1 < len(ops); i += 2 {
			step(ops[i], ops[i+1])
			if t.Failed() {
				t.Fatalf("step %d (op %d, arg %d) broke the books", i/2, ops[i]%6, ops[i+1])
			}
		}
	})
}
