package rtree

import (
	"math"

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
// query object itself when joining a dataset with itself). The result is
// unordered. No memory grows with k itself, so a k beyond the tree's size only
// keeps the threshold from tightening.
func (t *Tree) NNCandidates(q geom.Box3, k int, skip func(Entry) bool) []Candidate {
	if t.root == nil || (t.root.leaf && len(t.root.entries) == 0) || k <= 0 {
		return nil
	}
	s := nnSearch{q: q, k: k, skip: skip, threshold: math.Inf(1), best: make([]idMax, 0, min(k+1, nnBestCap))}
	s.walk(t.root)

	// Final prune with the settled threshold.
	out := s.cands[:0]
	for _, c := range s.cands {
		if c.MinDist <= s.threshold {
			out = append(out, c)
		}
	}
	return out
}

// nnBestCap caps the per-ID bound list's initial capacity: k comes from
// request input, so a larger k grows the list by append as IDs are seen.
const nnBestCap = 16

// idMax is one distinct ID's tightest MAXDIST seen so far.
type idMax struct {
	id   int64
	maxd float64
}

// nnSearch is one NNCandidates traversal: best-first over nodes ordered by
// MINDIST, maintaining the k-th smallest candidate MAXDIST as the pruning
// threshold (the paper's MINMAXDIST variable for k = 1). With sub-object
// entries one object can appear several times, and all its entries bound
// the SAME object distance — so the threshold ranges over distinct IDs
// (taking each ID's tightest MAXDIST), or a duplicated near object would
// wrongly evict the true k-th nearest.
type nnSearch struct {
	q         geom.Box3
	k         int
	skip      func(Entry) bool
	threshold float64
	cands     []Candidate
	// best holds the k distinct IDs with the smallest MAXDISTs, ascending,
	// so the threshold is best[k-1]. An ID that falls out never needs its
	// value back: the threshold only decreases, so a later entry of that ID
	// matters only if its MAXDIST beats the threshold — and then it is the
	// ID's tightest.
	best []idMax
}

func (s *nnSearch) walk(n *node) {
	if n.box.MinDist(s.q) > s.threshold {
		return
	}
	if n.leaf {
		for _, e := range n.entries {
			if s.skip != nil && s.skip(e) {
				continue
			}
			mind := e.Box.MinDist(s.q)
			if mind > s.threshold {
				continue
			}
			maxd := s.q.MaxDist(e.Box)
			s.cands = append(s.cands, Candidate{Entry: e, MinDist: mind, MaxDist: maxd})
			s.offer(e.ID, maxd)
		}
		return
	}
	// Visit children in MINDIST order for faster threshold tightening: an
	// insertion sort over the node's at most MaxEntries children.
	var order [MaxEntries]int
	var dist [MaxEntries]float64
	for i, c := range n.children {
		d := c.box.MinDist(s.q)
		j := i
		for ; j > 0 && dist[j-1] > d; j-- {
			order[j], dist[j] = order[j-1], dist[j-1]
		}
		order[j], dist[j] = i, d
	}
	for _, i := range order[:len(n.children)] {
		s.walk(n.children[i])
	}
}

// offer records maxd for id and lowers the threshold to the k-th smallest
// per-ID MAXDIST once k distinct IDs have been seen.
func (s *nnSearch) offer(id int64, maxd float64) {
	i := 0
	for i < len(s.best) && s.best[i].id != id {
		i++
	}
	switch {
	case i < len(s.best) && maxd >= s.best[i].maxd:
		return // not tighter than the ID's recorded bound
	case i == len(s.best):
		if len(s.best) == s.k && maxd >= s.best[s.k-1].maxd {
			return // beyond the k-th: cannot lower the threshold
		}
		s.best = append(s.best, idMax{})
	}
	// Shift the entries above maxd up over slot i, then place it.
	for i > 0 && s.best[i-1].maxd > maxd {
		s.best[i] = s.best[i-1]
		i--
	}
	s.best[i] = idMax{id, maxd}
	if len(s.best) > s.k {
		s.best = s.best[:s.k]
	}
	if len(s.best) == s.k {
		s.threshold = s.best[s.k-1].maxd
	}
}
