package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func randomEntries(rng *rand.Rand, n int, space, size float64) []Entry {
	es := make([]Entry, n)
	for i := range es {
		p := geom.V(rng.Float64()*space, rng.Float64()*space, rng.Float64()*space)
		q := p.Add(geom.V(rng.Float64()*size, rng.Float64()*size, rng.Float64()*size))
		es[i] = Entry{Box: geom.Box3{Min: p, Max: q}, ID: int64(i)}
	}
	return es
}

func idsOf(es []Entry) []int64 {
	ids := make([]int64, len(es))
	for i, e := range es {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bulkSizes are entry counts whose STR trees span every height the search
// paths meet at MaxEntries = 16: an empty leaf, one entry, one full leaf, a
// root over leaves, and three and four levels.
var bulkSizes = []struct{ n, height int }{{0, 1}, {1, 1}, {16, 1}, {17, 2}, {257, 3}, {5000, 4}}

// bulkTrees bulk-loads one random entry set per bulkSizes count, checking
// each tree's height, that every node box covers its contents, and that the
// tree holds every entry exactly once.
func bulkTrees(t *testing.T, rng *rand.Rand, space, size float64) ([][]Entry, []*Tree) {
	t.Helper()
	var sets [][]Entry
	var trees []*Tree
	for _, bs := range bulkSizes {
		es := randomEntries(rng, bs.n, space, size)
		tr := BulkLoad(es)
		if h := height(tr); h != bs.height {
			t.Fatalf("%d entries: height %d, want %d", bs.n, h, bs.height)
		}
		checkNode(t, tr.root)
		if got := enumerate(tr); !sameIDs(got, idsOf(es)) {
			t.Fatalf("%d entries: tree holds %d", bs.n, len(got))
		}
		sets, trees = append(sets, es), append(trees, tr)
	}
	return sets, trees
}

func height(tr *Tree) int {
	h := 1
	for n := tr.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

func checkNode(t *testing.T, n *node) {
	t.Helper()
	if n.leaf {
		for _, e := range n.entries {
			if !n.box.Contains(e.Box) {
				t.Fatal("leaf box does not contain entry")
			}
		}
		return
	}
	for _, c := range n.children {
		if !n.box.Contains(c.box) {
			t.Fatal("inner box does not contain child")
		}
		checkNode(t, c)
	}
}

// enumerate returns the sorted IDs of every entry, found by searching the
// tree's own bounds.
func enumerate(tr *Tree) []int64 {
	var got []Entry
	tr.SearchIntersect(tr.Bounds(), func(e Entry) bool {
		got = append(got, e)
		return true
	})
	return idsOf(got)
}

func TestEmptyTree(t *testing.T) {
	for name, tr := range map[string]*Tree{"zero": {}, "bulk": BulkLoad(nil)} {
		hits := 0
		tr.SearchIntersect(geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(1, 1, 1)}, func(Entry) bool {
			hits++
			return true
		})
		if hits != 0 {
			t.Errorf("%s: hits in empty tree", name)
		}
		if got := tr.NNCandidates(geom.BoxOf(geom.V(0, 0, 0)), 1, nil); got != nil {
			t.Errorf("%s: NN candidates in empty tree", name)
		}
		res := tr.SearchWithin(geom.BoxOf(geom.V(0, 0, 0)), 5)
		if len(res.Definite)+len(res.Candidates) != 0 {
			t.Errorf("%s: within results in empty tree", name)
		}
	}
}

func TestSearchIntersectMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets, trees := bulkTrees(t, rng, 100, 5)
	for i, tr := range trees {
		es := sets[i]
		for trial := 0; trial < 50; trial++ {
			p := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
			q := geom.Box3{Min: p, Max: p.Add(geom.V(10, 10, 10))}

			var got []Entry
			tr.SearchIntersect(q, func(e Entry) bool {
				got = append(got, e)
				return true
			})
			var want []Entry
			for _, e := range es {
				if e.Box.Intersects(q) {
					want = append(want, e)
				}
			}
			if !sameIDs(idsOf(got), idsOf(want)) {
				t.Fatalf("%d entries, trial %d: got %d hits, want %d", len(es), trial, len(got), len(want))
			}
		}
	}
}

func TestSearchIntersectEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := BulkLoad(randomEntries(rng, 200, 10, 5))
	count := 0
	tr.SearchIntersect(tr.Bounds(), func(Entry) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d, want 5", count)
	}
}

func TestSearchWithinCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets, trees := bulkTrees(t, rng, 100, 3)
	for i, tr := range trees {
		es := sets[i]
		for trial := 0; trial < 40; trial++ {
			p := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
			q := geom.Box3{Min: p, Max: p.Add(geom.V(4, 4, 4))}
			d := rng.Float64() * 20

			res := tr.SearchWithin(q, d)

			// Soundness: definite entries must have MAXDIST ≤ d; candidates
			// must have MINDIST ≤ d.
			for _, e := range res.Definite {
				if q.MaxDist(e.Box) > d+1e-9 {
					t.Fatalf("definite entry with MAXDIST %v > %v", q.MaxDist(e.Box), d)
				}
			}
			for _, e := range res.Candidates {
				if e.Box.MinDist(q) > d+1e-9 {
					t.Fatalf("candidate with MINDIST > d")
				}
			}
			// Completeness: every entry with MINDIST ≤ d appears somewhere.
			want := 0
			for _, e := range es {
				if e.Box.MinDist(q) <= d {
					want++
				}
			}
			if got := len(res.Definite) + len(res.Candidates); got != want {
				t.Fatalf("%d entries, trial %d: got %d entries, want %d", len(es), trial, got, want)
			}
		}
	}
}

func TestNNCandidatesContainTrueNN(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sets, trees := bulkTrees(t, rng, 100, 2)
	for i, tr := range trees {
		es := sets[i]
		if len(es) == 0 {
			continue
		}
		for trial := 0; trial < 60; trial++ {
			p := geom.V(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
			q := geom.BoxOf(p, p.Add(geom.V(1, 1, 1)))

			cands := tr.NNCandidates(q, 1, nil)
			if len(cands) == 0 {
				t.Fatal("no candidates")
			}
			// The entry with the minimum MINDIST (a fortiori the true nearest
			// object whatever its geometry) must be among the candidates,
			// because its range overlaps every other range's upper bound.
			best := math.Inf(1)
			bestID := int64(-1)
			for _, e := range es {
				if d := e.Box.MinDist(q); d < best {
					best, bestID = d, e.ID
				}
			}
			found := false
			for _, c := range cands {
				if c.ID == bestID {
					found = true
				}
				if c.MinDist != c.Box.MinDist(q) {
					t.Fatal("candidate MinDist inconsistent")
				}
				if c.MaxDist < c.MinDist {
					t.Fatal("candidate MaxDist < MinDist")
				}
			}
			if !found {
				t.Fatalf("%d entries: closest-MBB entry %d not among %d candidates", len(es), bestID, len(cands))
			}
			// Every non-candidate must be provably farther: its MINDIST must
			// exceed some candidate's MAXDIST.
			minmax := math.Inf(1)
			for _, c := range cands {
				if c.MaxDist < minmax {
					minmax = c.MaxDist
				}
			}
			inCands := map[int64]bool{}
			for _, c := range cands {
				inCands[c.ID] = true
			}
			for _, e := range es {
				if !inCands[e.ID] && e.Box.MinDist(q) <= minmax-1e-9 {
					t.Fatalf("entry %d excluded but MINDIST %v <= MINMAXDIST %v",
						e.ID, e.Box.MinDist(q), minmax)
				}
			}
		}
	}
}

func TestNNCandidatesSkip(t *testing.T) {
	es := []Entry{
		{Box: geom.BoxOf(geom.V(0, 0, 0), geom.V(1, 1, 1)), ID: 1},
		{Box: geom.BoxOf(geom.V(5, 0, 0), geom.V(6, 1, 1)), ID: 2},
	}
	tr := BulkLoad(es)
	q := es[0].Box
	cands := tr.NNCandidates(q, 1, func(e Entry) bool { return e.ID == 1 })
	if len(cands) != 1 || cands[0].ID != 2 {
		t.Fatalf("skip failed: %+v", cands)
	}
}

func TestNNCandidatesK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	es := randomEntries(rng, 200, 50, 1)
	tr := BulkLoad(es)
	q := geom.BoxOf(geom.V(25, 25, 25))
	for _, k := range []int{1, 3, 10} {
		cands := tr.NNCandidates(q, k, nil)
		if len(cands) < k {
			t.Errorf("k=%d: only %d candidates", k, len(cands))
		}
	}
	if got := tr.NNCandidates(q, 0, nil); got != nil {
		t.Error("k=0 should return nil")
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	es := randomEntries(rng, 10000, 1000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(es)
	}
}

func BenchmarkSearchIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := BulkLoad(randomEntries(rng, 10000, 1000, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geom.V(float64(i%990), float64((i*7)%990), float64((i*13)%990))
		q := geom.Box3{Min: p, Max: p.Add(geom.V(10, 10, 10))}
		tr.SearchIntersect(q, func(Entry) bool { return true })
	}
}

func BenchmarkNNCandidates(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := BulkLoad(randomEntries(rng, 10000, 1000, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geom.V(float64(i%990), float64((i*7)%990), float64((i*13)%990))
		tr.NNCandidates(geom.BoxOf(p), 1, nil)
	}
}

func TestNNCandidatesDuplicateIDs(t *testing.T) {
	// Sub-object indexing: one near object contributes several entries. The
	// k-th-MAXDIST threshold must range over distinct IDs, or the second
	// nearest OBJECT would be pruned by the near object's duplicates.
	es := []Entry{
		// Object 1: two tight sub-boxes right next to the query.
		{Box: geom.BoxOf(geom.V(1, 0, 0), geom.V(2, 1, 1)), ID: 1},
		{Box: geom.BoxOf(geom.V(2, 0, 0), geom.V(3, 1, 1)), ID: 1},
		// Object 2: farther away.
		{Box: geom.BoxOf(geom.V(30, 0, 0), geom.V(31, 1, 1)), ID: 2},
	}
	tr := BulkLoad(es)
	q := geom.BoxOf(geom.V(0, 0, 0), geom.V(0.5, 0.5, 0.5))

	cands := tr.NNCandidates(q, 2, nil)
	ids := map[int64]bool{}
	for _, c := range cands {
		ids[c.ID] = true
	}
	if !ids[1] || !ids[2] {
		t.Fatalf("k=2 candidates must cover both objects, got %v", cands)
	}
}

// TestNNCandidatesMatchBrute checks the traversal against its definition on
// sub-object entries (two per ID): the threshold is the k-th smallest
// per-ID tightest MAXDIST, and the candidates are every entry whose MINDIST
// is within it. Integer coordinates make distance ties common.
func TestNNCandidatesMatchBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	es := make([]Entry, 400)
	for i := range es {
		p := geom.V(float64(rng.Intn(40)), float64(rng.Intn(40)), float64(rng.Intn(40)))
		es[i] = Entry{Box: geom.Box3{Min: p, Max: p.Add(geom.V(1+float64(rng.Intn(3)), 1, 2))}, ID: int64(i / 2)}
	}
	tr := BulkLoad(es)
	for trial := 0; trial < 50; trial++ {
		p := geom.V(float64(rng.Intn(40)), float64(rng.Intn(40)), float64(rng.Intn(40)))
		q := geom.Box3{Min: p, Max: p.Add(geom.V(float64(rng.Intn(6)), 2, 1))}
		for _, k := range []int{1, 2, 5} {
			tightest := map[int64]float64{}
			for _, e := range es {
				if d, ok := tightest[e.ID]; !ok || q.MaxDist(e.Box) < d {
					tightest[e.ID] = q.MaxDist(e.Box)
				}
			}
			var maxds []float64
			for _, d := range tightest {
				maxds = append(maxds, d)
			}
			sort.Float64s(maxds)
			var want []Candidate
			for _, e := range es {
				if mind := e.Box.MinDist(q); mind <= maxds[k-1] {
					want = append(want, Candidate{Entry: e, MinDist: mind, MaxDist: q.MaxDist(e.Box)})
				}
			}
			got := tr.NNCandidates(q, k, nil)
			sortByEntry := func(cs []Candidate) {
				sort.Slice(cs, func(i, j int) bool {
					a, b := cs[i].Box, cs[j].Box
					if cs[i].ID != cs[j].ID {
						return cs[i].ID < cs[j].ID
					}
					return a.Min.X < b.Min.X || a.Min.X == b.Min.X && (a.Min.Y < b.Min.Y || a.Min.Y == b.Min.Y && a.Min.Z < b.Min.Z)
				})
			}
			sortByEntry(got)
			sortByEntry(want)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d candidates, want %d", trial, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d: candidate %d = %+v, want %+v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNNCandidatesAllocs bounds the traversal's allocations: the per-ID
// bounds and the child order live in per-call or fixed storage, so a query
// over a 10,000-entry tree allocates little beyond the candidate slice as
// it grows.
func TestNNCandidatesAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := BulkLoad(randomEntries(rng, 10000, 1000, 5))
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := geom.V(float64(i%990), float64((i*7)%990), float64((i*13)%990))
		i++
		tr.NNCandidates(geom.BoxOf(p), 1, nil)
	})
	if allocs > 6 {
		t.Errorf("NNCandidates allocates %.1f times per query, want ≤ 6", allocs)
	}
}

// TestNNCandidatesHugeK checks that k comes from outside input without
// sizing anything: a k far beyond the tree's size returns every entry (the
// threshold never tightens) at the cost of a k=1 query's allocations plus
// the candidate slice's growth.
func TestNNCandidatesHugeK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	es := randomEntries(rng, 500, 100, 2)
	tr := BulkLoad(es)
	q := geom.BoxOf(geom.V(50, 50, 50))
	const k = 100_000_000_000
	if got := tr.NNCandidates(q, k, nil); len(got) != len(es) {
		t.Fatalf("k=%d: %d candidates, want all %d entries", k, len(got), len(es))
	}
	allocs := testing.AllocsPerRun(20, func() { tr.NNCandidates(q, k, nil) })
	if allocs > 40 {
		t.Errorf("k=%d allocates %.0f times per query, want ≤ 40", k, allocs)
	}
}
