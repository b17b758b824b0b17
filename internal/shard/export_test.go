package shard

// Held returns, per group of name installed on the node, the IDs of the
// objects the node holds for it, ascending.
func (n *Node) Held(name string) map[int][]int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[int][]int64)
	for g, d := range n.datasets[name] {
		for _, o := range d.Tileset.Objects {
			if o != nil {
				out[g] = append(out[g], o.ID)
			}
		}
	}
	return out
}
