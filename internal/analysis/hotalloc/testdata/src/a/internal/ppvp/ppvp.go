// Package ppvp is the hotalloc fixture for the encoder, in scope since
// issue 18: the decimation round runs per candidate vertex and has no
// dispatcher to root a reachability walk at, so the Triangles() and
// reflection-sort rules hold for the whole package.
package ppvp

import (
	"slices"
	"sort"

	"a/internal/mesh"
)

// roundStartTree is what every round used to do: materialise the surface as
// []Triangle to build a tree from it.
func roundStartTree(m *mesh.Mesh) int {
	return len(m.Triangles()) // want "use SoA"
}

func roundStartLanes(m *mesh.Mesh) int {
	return len(m.SoA())
}

// snapshot sorts the face keys through reflection: flagged although no
// runPerTarget callback or stage goroutine reaches it.
func snapshot(keys [][3]int32) {
	sort.Slice(keys, func(i, j int) bool { return keys[i][0] < keys[j][0] }) // want "sort.Slice sorts through reflection, in a package that is hot path throughout"
}

func snapshotTyped(keys [][3]int32) {
	slices.SortFunc(keys, func(a, b [3]int32) int { return slices.Compare(a[:], b[:]) })
}
