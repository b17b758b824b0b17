// Package shard is the hotalloc fixture for the coordinator tier, brought
// into scope by issue 8: merge callbacks run per result pair and local
// refinement must not rebuild triangle soups per call.
package shard

import "a/internal/mesh"

// localRefine falls back to engine-local refinement when a shard dies; it
// runs inside the candidate loop, so Triangles() is the per-call allocation
// the memoized lanes exist to avoid.
func localRefine(m *mesh.Mesh) int {
	tris := m.Triangles() // want "use SoA"
	return len(tris)
}

func localRefineSoA(m *mesh.Mesh) int {
	return len(m.SoA())
}

// runPerTarget mirrors the core dispatcher's shape; the analyzer roots the
// per-pair region at its callback literals by callee name.
func runPerTarget(workers int, fn func(w int, o int) error) error {
	for w := 0; w < workers; w++ {
		if err := fn(w, w); err != nil {
			return err
		}
	}
	return nil
}

// mergeShards hands runPerTarget a callback that allocates a scratch slice
// per object: flagged.
func mergeShards(workers int) error {
	return runPerTarget(workers, func(w int, o int) error {
		buf := make([]int, 0, 4) // want "slice allocation reachable from a runPerTarget callback"
		buf = append(buf, o)
		return nil
	})
}

// mergeShardsScratch indexes per-worker scratch instead: no finding.
func mergeShardsScratch(workers int, scratch [][]int) error {
	return runPerTarget(workers, func(w int, o int) error {
		scratch[w] = append(scratch[w][:0], o)
		return nil
	})
}
