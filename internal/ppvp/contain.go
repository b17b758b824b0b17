package ppvp

import (
	"math"

	"repro/internal/geom"
	"repro/internal/index/aabbtree"
)

// tet is one carved-off tetrahedron: a patch face (a, b, c) plus the removed
// vertex v above it. The four plane normals point outward so inside tests
// are four sign checks.
type tet struct {
	box    geom.Box3
	planes [4]plane
}

type plane struct {
	n geom.Vec3
	d float64 // n·x <= d inside
}

func planeThrough(a, b, c, inside geom.Vec3) plane {
	n := b.Sub(a).Cross(c.Sub(a))
	d := n.Dot(a)
	if n.Dot(inside) > d {
		n = n.Neg()
		d = -d
	}
	return plane{n: n, d: d}
}

func makeTet(a, b, c, v geom.Vec3) tet {
	centroid := a.Add(b).Add(c).Add(v).Mul(0.25)
	return tet{
		box: geom.BoxOf(a, b, c, v),
		planes: [4]plane{
			planeThrough(a, b, c, centroid),
			planeThrough(a, b, v, centroid),
			planeThrough(b, c, v, centroid),
			planeThrough(c, a, v, centroid),
		},
	}
}

// contains reports whether p is strictly inside the tetrahedron, with a
// small tolerance pulling the boundary inward so points exactly on a carved
// face do not count as removed.
func (t *tet) contains(p geom.Vec3, tol float64) bool {
	if !t.box.ContainsPoint(p) {
		return false
	}
	for i := range t.planes {
		pl := &t.planes[i]
		// Scale-normalize so tol compares a true distance.
		l := pl.n.Len()
		if l == 0 {
			return false
		}
		if pl.n.Dot(p) > pl.d-tol*l {
			return false
		}
	}
	return true
}

// tetGrid holds the tetrahedra carved out so far this round, bucketed by
// the cells of a uniform grid over the round-start bounds so that a sample
// point is tested only against tetrahedra whose box overlaps its cell. Any
// superset filter is exact here: tet.contains starts with its own box test.
type tetGrid struct {
	tets    []tet
	head    []int32 // per cell: its newest entry, -1 for none
	entries []gridEntry
	n       int // cells per axis
	min     geom.Vec3
	scale   geom.Vec3 // cells per unit length
}

// gridEntry links one tetrahedron into one cell's list.
type gridEntry struct{ tet, next int32 }

// reset empties the grid and lays it over b with about one cell per face of
// the round-start surface.
func (g *tetGrid) reset(b geom.Box3, faces int) {
	g.n = int(math.Cbrt(float64(faces))) + 1
	size := b.Size()
	g.min = b.Min
	g.scale = geom.V(float64(g.n)/size.X, float64(g.n)/size.Y, float64(g.n)/size.Z)
	g.tets, g.entries = g.tets[:0], g.entries[:0]
	g.head = grown(g.head, g.n*g.n*g.n)
	for i := range g.head {
		g.head[i] = -1
	}
}

// cell returns the grid coordinates of p, clamped into the grid. Each is
// monotone in its coordinate (also over a flat axis, where scale is +Inf),
// so a box's cells span the cells of every point inside it.
func (g *tetGrid) cell(p geom.Vec3) (c [3]int) {
	for i := range c {
		if x := (p.Component(i) - g.min.Component(i)) * g.scale.Component(i); x >= float64(g.n) {
			c[i] = g.n - 1
		} else if x >= 1 {
			c[i] = int(x)
		}
	}
	return c
}

// add links t into every cell its box overlaps.
func (g *tetGrid) add(t tet) {
	ti := int32(len(g.tets))
	g.tets = append(g.tets, t)
	lo, hi := g.cell(t.box.Min), g.cell(t.box.Max)
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for z := lo[2]; z <= hi[2]; z++ {
				c := (x*g.n+y)*g.n + z
				g.entries = append(g.entries, gridEntry{tet: ti, next: g.head[c]})
				g.head[c] = int32(len(g.entries) - 1)
			}
		}
	}
}

// contains reports whether p is strictly inside a carved tetrahedron.
func (g *tetGrid) contains(p geom.Vec3, tol float64) bool {
	c := g.cell(p)
	for e := g.head[(c[0]*g.n+c[1])*g.n+c[2]]; e >= 0; e = g.entries[e].next {
		if g.tets[g.entries[e].tet].contains(p, tol) {
			return true
		}
	}
	return false
}

// patchContained verifies the progressive-subset guarantee for a candidate
// removal: seven sampled points on each new patch face, nudged slightly
// inward, must lie inside the round-start solid (tree) and outside every
// tetrahedron already carved out this round. The verdict is the conjunction
// over all samples, so the cheap grid test runs before the ray cast.
func patchContained(pts []geom.Vec3, patch [][3]uint16, tree *aabbtree.Tree, carved *tetGrid, diag float64) bool {
	eps := 1e-9 * (diag + 1)
	for _, t := range patch {
		tri := geom.Triangle{A: pts[t[0]], B: pts[t[1]], C: pts[t[2]]}
		inward := tri.UnitNormal().Neg()
		if inward == (geom.Vec3{}) {
			return false
		}
		cen := tri.Centroid()
		samples := [7]geom.Vec3{
			cen,
			tri.A.Lerp(cen, 0.5),
			tri.B.Lerp(cen, 0.5),
			tri.C.Lerp(cen, 0.5),
			tri.A.Lerp(tri.B, 0.5).Lerp(cen, 0.15),
			tri.B.Lerp(tri.C, 0.5).Lerp(cen, 0.15),
			tri.C.Lerp(tri.A, 0.5).Lerp(cen, 0.15),
		}
		for _, s := range samples {
			if p := s.Add(inward.Mul(eps)); carved.contains(p, eps) || !tree.ContainsPoint(p) {
				return false
			}
		}
	}
	return true
}
