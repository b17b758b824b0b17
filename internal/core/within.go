package core

import "context"

// WithinJoin returns, for each object o of target, every object of source
// whose distance to o is ≤ dist. When target and source are the same
// dataset an object never matches itself.
//
// The filtering step (§4.2) uses MINDIST/MAXDIST pruning on the R-tree:
// subtrees provably out of range are skipped and subtrees provably within
// range are accepted without any decoding. Under FPR (Alg. 2) the remaining
// candidates are settled early: if the distance at a low LOD is already
// ≤ dist, the true distance can only be smaller (PPVP property 2), so the
// candidate is reported without decoding higher LODs. A low-LOD distance
// above dist is inconclusive, so unsettled candidates ride up to the
// highest LOD where the decision is exact. The ladder itself is in
// pipeline.go.
func (e *Engine) WithinJoin(ctx context.Context, target, source *Dataset, dist float64, q QueryOptions) ([]Pair, *Stats, error) {
	return e.join(ctx, WithinKind, target, source, dist, q)
}
