package datagen

import (
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/index/aabbtree"
	"repro/internal/mesh"
)

// VesselOptions configures vessel generation.
type VesselOptions struct {
	// Count is the number of vessels.
	Count int
	// Space is the box the dataset must fit inside.
	Space geom.Box3
	// Bifurcations per vessel (default 5, the paper's average).
	Bifurcations int
	// RingSegments is the number of vertices per tube cross-section
	// (default 10). Together with PathPoints it sets the face budget.
	RingSegments int
	// PathPoints per tube segment (default 10).
	PathPoints int
	// Seed drives all randomness.
	Seed int64
}

func (o *VesselOptions) setDefaults() {
	if o.Count <= 0 {
		o.Count = 10
	}
	if o.Space.IsEmpty() || o.Space.Volume() <= 0 {
		o.Space = geom.Box3{Min: geom.V(0, 0, 0), Max: geom.V(100, 100, 100)}
	}
	if o.Bifurcations <= 0 {
		o.Bifurcations = 5
	}
	if o.RingSegments < 3 {
		o.RingSegments = 10
	}
	if o.PathPoints < 2 {
		o.PathPoints = 10
	}
}

// Vessels generates Count bifurcated vessels on a grid inside Space. Each
// vessel is a tree of closed tube segments (trunk plus branches); segments
// of the same vessel are mutually disjoint closed surfaces, so the union is
// a valid (multi-component) polyhedron and point containment, volume, and
// the PPVP subset guarantee all behave. Vessels never intersect each other.
func Vessels(opts VesselOptions) []*mesh.Mesh {
	opts.setDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	cells := gridCells(opts.Space, opts.Count)

	out := make([]*mesh.Mesh, 0, opts.Count)
	for i := 0; i < opts.Count; i++ {
		cell := cells[i].Expand(-0.02 * cells[i].Diagonal()) // margin between vessels
		var v *mesh.Mesh
		for attempt := 0; attempt < 8; attempt++ {
			v = growVessel(rng, cell, opts)
			if v != nil {
				break
			}
		}
		if v == nil {
			// Extremely unlikely; fall back to a single straight tube.
			c := cell.Center()
			half := cell.Size().Mul(0.35)
			v = mesh.Tube(
				[]geom.Vec3{c.Sub(geom.V(half.X, 0, 0)), c.Add(geom.V(half.X, 0, 0))},
				[]float64{cell.Diagonal() * 0.02, cell.Diagonal() * 0.02},
				opts.RingSegments)
		}
		out = append(out, v)
	}
	return out
}

// branch is one tube segment of the vessel tree.
type branch struct {
	path  []geom.Vec3
	radii []float64
}

// growVessel grows one bifurcated tree inside the cell and returns it as a
// single mesh, or nil when the segments could not be kept disjoint.
func growVessel(rng *rand.Rand, cell geom.Box3, opts VesselOptions) *mesh.Mesh {
	branches := growBranches(rng, cell, opts)

	// Build the tubes, dropping any branch that would intersect or nest
	// inside an already accepted one: the union must stay a disjoint set of
	// closed surfaces for point-containment parity to work.
	var trees []*aabbtree.Tree
	merged := &mesh.Mesh{}
	kept := 0
	for _, b := range branches {
		t := mesh.Tube(b.path, b.radii, opts.RingSegments)
		if t == nil || t.Validate() != nil {
			continue
		}
		tree := aabbtree.BuildFaces(t.Vertices, t.Faces, nil)
		ok := true
		for _, prev := range trees {
			if tree.IntersectsTree(prev) || prev.ContainsPoint(b.path[0]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		trees = append(trees, tree)
		appendMesh(merged, t)
		kept++
	}
	// A vessel should look bifurcated: require a trunk plus at least three
	// branches, otherwise let the caller retry with fresh randomness.
	if kept < 4 || merged.Validate() != nil {
		return nil
	}
	return merged
}

// growBranches random-walks the branch skeleton of one vessel tree.
func growBranches(rng *rand.Rand, cell geom.Box3, opts VesselOptions) []branch {
	scale := cell.Size()
	minEdge := math.Min(scale.X, math.Min(scale.Y, scale.Z))
	baseRadius := 0.05 * minEdge
	segLen := 0.35 * minEdge

	type stub struct {
		start geom.Vec3
		dir   geom.Vec3
		r     float64
		depth int
	}
	start := cell.Center().Sub(geom.V(0, 0, 0.4*scale.Z))
	queue := []stub{{start: start, dir: geom.V(0.1, 0.1, 1).Normalize(), r: baseRadius, depth: 0}}

	var branches []branch
	bifurcationsLeft := opts.Bifurcations

	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]

		// Random-walked path with a bulging radius profile (the bulges are
		// the recessing regions that lower the protruding fraction).
		path := make([]geom.Vec3, 0, opts.PathPoints)
		radii := make([]float64, 0, opts.PathPoints)
		p, d := s.start, s.dir
		step := segLen / float64(opts.PathPoints-1)
		for j := 0; j < opts.PathPoints; j++ {
			path = append(path, p)
			bulge := 1 + 0.25*math.Sin(float64(j)*1.1+rng.Float64())
			radii = append(radii, s.r*bulge)
			d = d.Add(randomUnit(rng).Mul(0.25)).Normalize()
			next := clampInto(p.Add(d.Mul(step)), cell, s.r*2)
			if next.Dist(p) < 0.2*step {
				break // clamped into a corner: stop the branch early
			}
			p = next
		}
		if len(path) < 2 {
			continue
		}
		branches = append(branches, branch{path: path, radii: radii})

		if bifurcationsLeft > 0 && s.depth < 6 {
			bifurcationsLeft--
			for c := 0; c < 2; c++ {
				nd := d.Add(randomUnit(rng).Mul(0.6)).Normalize()
				childR := s.r * 0.75
				// Offset the child start past the parent cap so the closed
				// tubes stay disjoint.
				gap := radii[len(radii)-1] + childR
				queue = append(queue, stub{
					start: clampInto(p.Add(nd.Mul(gap*1.2)), cell, childR*2),
					dir:   nd,
					r:     childR,
					depth: s.depth + 1,
				})
			}
		}
	}

	return branches
}

func clampInto(p geom.Vec3, b geom.Box3, margin float64) geom.Vec3 {
	shrunk := b.Expand(-margin)
	if shrunk.IsEmpty() {
		return b.Center()
	}
	return shrunk.ClosestPoint(p)
}

// appendMesh concatenates src into dst as an independent component.
func appendMesh(dst, src *mesh.Mesh) {
	off := int32(len(dst.Vertices))
	dst.Vertices = append(dst.Vertices, src.Vertices...)
	for _, f := range src.Faces {
		dst.Faces = append(dst.Faces, mesh.Face{f[0] + off, f[1] + off, f[2] + off})
	}
}
