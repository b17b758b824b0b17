// Package core is the hot-path fixture: its package path ends in
// internal/core, so hotalloc applies both rules here.
package core

import (
	"slices"
	"sort"
	"sync"

	"a/internal/mesh"
)

// runPerTarget mimics the engine's per-object dispatcher; hotalloc treats
// function literals passed to any callee named runPerTarget as hot roots.
// Its own body runs once per query, so its allocation is exempt.
func runPerTarget(workers int, fn func(w int, o int) error) error {
	order := make([]int, 0, 4) // per-query dispatch scratch: dispatcher body is exempt
	for o := 0; o < 4; o++ {
		order = append(order, o)
	}
	for _, o := range order {
		if err := fn(o%workers, o); err != nil {
			return err
		}
	}
	return nil
}

// Evaluate is the positive fixture: allocations inside (or reachable from)
// the callback are flagged; single-flighted and pre-loop allocations are
// not.
func Evaluate(m *mesh.Mesh, workers int) error {
	scratch := make([][]int, workers) // pre-loop per-worker scratch: not reachable, OK
	var once sync.Once
	var cached []mesh.Triangle
	return runPerTarget(workers, func(w int, o int) error {
		tris := m.Triangles() // want "Triangles.. in hot-path packages"
		_ = tris
		buf := make([]float64, o) // want "slice allocation reachable from a runPerTarget callback"
		_ = buf
		ids := []int{o} // want "slice literal reachable from a runPerTarget callback"
		_ = ids
		seen := make(map[int]bool) // map allocation: not a slice, OK
		_ = seen
		scratch[w] = scratch[w][:0] // reuse: OK
		once.Do(func() {
			cached = make([]mesh.Triangle, 8) // single-flighted build: OK
		})
		_ = cached
		_ = m.Groups(func() [][]int32 {
			return make([][]int32, 2) // per-mesh memo build: OK
		})
		helper(o)
		sortHelper(ids)
		return nil
	})
}

// sortHelper is reachable from the callback: the reflection sorts are
// flagged, the typed ones are not.
func sortHelper(ids []int) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })       // want "sort.Slice sorts through reflection and is reachable from a runPerTarget callback"
	sort.SliceStable(ids, func(i, j int) bool { return ids[i] < ids[j] }) // want "sort.SliceStable sorts through reflection"
	sort.Ints(ids)                                                        // typed: OK
	slices.Sort(ids)
	slices.SortFunc(ids, func(a, b int) int { return a - b })
}

// coldSort is never reached from a hot root; sort.Slice is fine here.
func coldSort(ids []int) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// helper is reachable from the callback, so its allocation is hot too.
func helper(n int) []int {
	return make([]int, n) // want "slice allocation reachable from a runPerTarget callback"
}

// coldPath is never called from a runPerTarget callback; its allocations
// are fine.
func coldPath(m *mesh.Mesh) []mesh.Triangle {
	out := make([]mesh.Triangle, 0, 8)
	out = append(out, m.SoA()...) // memoized lanes: OK
	return out
}

// Lanes uses the sanctioned accessor inside the callback.
func Lanes(m *mesh.Mesh, workers int) error {
	return runPerTarget(workers, func(w int, o int) error {
		_ = m.SoA()
		return nil
	})
}

// Suppressed shows a vetted false positive being silenced.
func Suppressed(workers int) error {
	return runPerTarget(workers, func(w int, o int) error {
		//lint:ignore hotalloc fixture: bounded one-element slice, measured irrelevant
		tiny := make([]int, 1)
		_ = tiny
		return nil
	})
}
