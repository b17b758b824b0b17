package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// Property: for random box sets and random query boxes, the bulk-loaded
// tree returns exactly the brute-force hit set.
func TestPropertyBulkLoadMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(120)
		es := randomEntries(rng, n, 40, 1+rng.Float64()*8)
		tr := BulkLoad(es)

		for q := 0; q < 8; q++ {
			p := geom.V(rng.Float64()*50-5, rng.Float64()*50-5, rng.Float64()*50-5)
			query := geom.Box3{Min: p, Max: p.Add(geom.V(rng.Float64()*15, rng.Float64()*15, rng.Float64()*15))}

			want := map[int64]bool{}
			for _, e := range es {
				if e.Box.Intersects(query) {
					want[e.ID] = true
				}
			}
			got := map[int64]bool{}
			tr.SearchIntersect(query, func(e Entry) bool {
				got[e.ID] = true
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d hits, want %d", trial, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("trial %d: missing %d", trial, id)
				}
			}
		}
	}
}

// Property: the within traversal is exact — Definite ∪ Candidates equals
// the MINDIST-filtered set and Definite is always sound.
func TestPropertyWithinExact(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(150)
		es := randomEntries(rng, n, 60, 2)
		tr := BulkLoad(es)
		p := geom.V(rng.Float64()*60, rng.Float64()*60, rng.Float64()*60)
		q := geom.Box3{Min: p, Max: p.Add(geom.V(3, 3, 3))}
		d := rng.Float64() * 25

		res := tr.SearchWithin(q, d)
		got := map[int64]bool{}
		for _, e := range res.Definite {
			if q.MaxDist(e.Box) > d+1e-9 {
				t.Fatalf("unsound definite entry")
			}
			got[e.ID] = true
		}
		for _, e := range res.Candidates {
			got[e.ID] = true
		}
		for _, e := range es {
			want := e.Box.MinDist(q) <= d
			if want != got[e.ID] {
				t.Fatalf("trial %d: entry %d present=%v want=%v", trial, e.ID, got[e.ID], want)
			}
		}
	}
}

// Property: bulk loading never loses or duplicates an entry.
func TestPropertyBulkLoadPreservesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(400)
		es := randomEntries(rng, n, 100, 3)
		if got := enumerate(BulkLoad(es)); !sameIDs(got, idsOf(es)) {
			t.Fatalf("enumerated %d of %d", len(got), n)
		}
	}
}
