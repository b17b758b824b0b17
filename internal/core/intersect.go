package core

import "context"

// IntersectJoin returns, for each object o of target, every object of
// source whose geometry intersects o (touching or containment counts).
// When target and source are the same dataset, an object never matches
// itself.
//
// Under FPR (Alg. 1 of the paper) candidates are tested with faces decoded
// at ascending LODs: an intersection found at a low LOD is final thanks to
// the PPVP progressive-approximation property, so the candidate is settled
// without ever decoding the higher LODs. Containment — which produces no
// face intersection — is resolved at the highest LOD for the survivors.
// The ladder itself is in pipeline.go.
func (e *Engine) IntersectJoin(ctx context.Context, target, source *Dataset, q QueryOptions) ([]Pair, *Stats, error) {
	pairs, _, st, err := e.join(ctx, IntersectKind, target, source, 0, q)
	return pairs, st, err
}
