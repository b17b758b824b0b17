package cfg

// Forward runs a forward dataflow fixpoint over g. entry is the fact at the
// function entry; transfer applies one block's effects to an incoming fact
// and returns the outgoing fact (it must not mutate its argument); join
// merges facts at control-flow merges; equal detects convergence.
//
// The returned map holds each reachable block's IN fact (the join of its
// predecessors' OUT facts; the entry block's IN is entry). Unreachable
// blocks are absent.
//
// Whether the analysis is "may" (union join) or "must" (intersection join)
// is entirely the client's choice of join. Termination requires the usual
// lattice conditions: join monotone with transfer, finite fact height.
func Forward[F any](g *Graph, entry F, transfer func(*Block, F) F, join func(F, F) F, equal func(F, F) bool) map[*Block]F {
	in := make(map[*Block]F)
	in[g.Entry] = entry
	out := make(map[*Block]F)
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		o := transfer(b, in[b])
		if prev, ok := out[b]; ok && equal(prev, o) {
			continue
		}
		out[b] = o
		for _, s := range b.Succs {
			next := o
			if cur, ok := in[s]; ok {
				next = join(cur, o)
				if equal(cur, next) {
					continue
				}
			}
			in[s] = next
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}
