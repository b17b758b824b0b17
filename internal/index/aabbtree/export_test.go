package aabbtree

import "repro/internal/geom"

// ContainsPointGeneric is ContainsPoint as it stood before the +X cast got
// a descent of its own: every direction of geom.RayDirections, +X included,
// goes through the recursive Ray.IntersectBox descent and the generic
// triangle test. TestContainsPointMatchesGeneric holds ContainsPoint to it.
func (t *Tree) ContainsPointGeneric(p geom.Vec3) bool {
	if t.root < 0 || !t.Bounds().ContainsPoint(p) {
		return false
	}
	parity := false
	for _, dir := range geom.RayDirections() {
		crossings, ok := t.countCrossings(t.root, geom.Ray{Origin: p, Dir: dir})
		parity = crossings%2 == 1
		if ok {
			return parity
		}
	}
	return parity
}
