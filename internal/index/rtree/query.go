package rtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// SearchIntersect visits every entry whose MBB intersects q. The visitor
// returns false to stop early.
func (t *Tree) SearchIntersect(q geom.Box3, visit func(Entry) bool) {
	if t.root == nil {
		return
	}
	searchIntersect(t.root, q, visit)
}

func searchIntersect(n *node, q geom.Box3, visit func(Entry) bool) bool {
	if !n.box.Intersects(q) {
		return true
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.Box.Intersects(q) {
				if !visit(e) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !searchIntersect(c, q, visit) {
			return false
		}
	}
	return true
}

// WithinResult partitions the entries reachable within distance d of the
// query box, per the traversal of §4.2: Definite entries are guaranteed to
// be within d of the query object (the MAXDIST of the pair of MBBs is ≤ d),
// while Candidates need refinement with decoded geometry.
type WithinResult struct {
	Definite   []Entry
	Candidates []Entry
}

// SearchWithin runs the within-distance traversal: subtrees whose MINDIST
// to q exceeds d are pruned; subtrees whose MAXDIST is ≤ d are accepted
// wholesale; leaf entries in between become candidates.
func (t *Tree) SearchWithin(q geom.Box3, d float64) WithinResult {
	var res WithinResult
	if t.root == nil {
		return res
	}
	searchWithin(t.root, q, d, &res)
	return res
}

func searchWithin(n *node, q geom.Box3, d float64, res *WithinResult) {
	if n.box.MinDist(q) > d {
		return
	}
	if q.MaxDist(n.box) <= d {
		collectAll(n, &res.Definite)
		return
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.Box.MinDist(q) > d {
				continue
			}
			if q.MaxDist(e.Box) <= d {
				res.Definite = append(res.Definite, e)
			} else {
				res.Candidates = append(res.Candidates, e)
			}
		}
		return
	}
	for _, c := range n.children {
		searchWithin(c, q, d, res)
	}
}

func collectAll(n *node, out *[]Entry) {
	if n.leaf {
		*out = append(*out, n.entries...)
		return
	}
	for _, c := range n.children {
		collectAll(c, out)
	}
}

// Candidate is a nearest-neighbor candidate with its distance range
// r = [MINDIST, MAXDIST] to the query box.
type Candidate struct {
	Entry
	MinDist float64
	MaxDist float64
}

// NNCandidates returns every entry whose distance range to q overlaps the
// best range seen — the candidate set of §4.3 that progressive refinement
// then narrows with decoded faces. k sets how many nearest neighbors the
// caller ultimately wants (k=1 for plain NN); at least k candidates are
// always retained. An optional skip callback excludes entries (e.g. the
// query object itself when joining a dataset with itself).
func (t *Tree) NNCandidates(q geom.Box3, k int, skip func(Entry) bool) []Candidate {
	if t.root == nil || (t.root.leaf && len(t.root.entries) == 0) || k <= 0 {
		return nil
	}

	// Best-first traversal over nodes ordered by MINDIST, maintaining the
	// k-th smallest candidate MAXDIST as the pruning threshold (the paper's
	// MINMAXDIST variable for k = 1). With sub-object entries one object
	// can appear several times, and all its entries bound the SAME object
	// distance — so the threshold must range over distinct IDs (taking each
	// ID's tightest MAXDIST), or a duplicated near object would wrongly
	// evict the true k-th nearest.
	var cands []Candidate
	threshold := math.Inf(1)
	bestMax := map[int64]float64{}

	kth := func() float64 {
		if len(bestMax) < k {
			return math.Inf(1)
		}
		// k is tiny (1 for NN joins); a linear pass is cheaper than a heap.
		maxd := make([]float64, 0, len(bestMax))
		for _, d := range bestMax {
			maxd = append(maxd, d)
		}
		sort.Float64s(maxd)
		return maxd[k-1]
	}

	var walk func(n *node)
	walk = func(n *node) {
		if n.box.MinDist(q) > threshold {
			return
		}
		if n.leaf {
			for _, e := range n.entries {
				if skip != nil && skip(e) {
					continue
				}
				mind := e.Box.MinDist(q)
				if mind > threshold {
					continue
				}
				maxd := q.MaxDist(e.Box)
				cands = append(cands, Candidate{Entry: e, MinDist: mind, MaxDist: maxd})
				if prev, ok := bestMax[e.ID]; !ok || maxd < prev {
					bestMax[e.ID] = maxd
				}
				threshold = kth()
			}
			return
		}
		// Visit children in MINDIST order for faster threshold tightening.
		order := make([]int, len(n.children))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return n.children[order[a]].box.MinDist(q) < n.children[order[b]].box.MinDist(q)
		})
		for _, i := range order {
			walk(n.children[i])
		}
	}
	walk(t.root)

	// Final prune with the settled threshold.
	out := cands[:0]
	for _, c := range cands {
		if c.MinDist <= threshold {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MinDist < out[j].MinDist })
	return out
}
