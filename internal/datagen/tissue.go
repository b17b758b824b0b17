package datagen

import (
	"repro/internal/index/aabbtree"
	"repro/internal/mesh"
)

// TissueOptions configures a combined nuclei + vessels sample sharing one
// space, like the paper's brain-tissue dataset.
type TissueOptions struct {
	Nuclei  NucleiOptions
	Vessels VesselOptions
}

// Tissue generates vessels and nuclei in the same space with mutually
// disjoint interiors: nuclei that intersect (or sit inside) a vessel are
// discarded, mimicking real tissue where nuclei surround the vasculature.
// The returned nuclei count may therefore be slightly below the requested
// count. The disjointness makes the pair valid for distance queries (see
// the core package precondition).
func Tissue(opts TissueOptions) (nuclei, vessels []*mesh.Mesh) {
	if opts.Vessels.Space.IsEmpty() || opts.Vessels.Space.Volume() <= 0 {
		opts.Vessels.Space = opts.Nuclei.Space
	}
	vessels = Vessels(opts.Vessels)
	trees := make([]*aabbtree.Tree, len(vessels))
	for i, v := range vessels {
		trees[i] = aabbtree.BuildFaces(v.Vertices, v.Faces, nil)
	}

	candidates := Nuclei(opts.Nuclei)
	for _, n := range candidates {
		tree := aabbtree.BuildFaces(n.Vertices, n.Faces, nil)
		ok := true
		for _, vt := range trees {
			if !vt.Bounds().Intersects(tree.Bounds()) {
				continue
			}
			if vt.IntersectsTree(tree) || vt.ContainsPoint(n.Vertices[0]) {
				ok = false
				break
			}
		}
		if ok {
			nuclei = append(nuclei, n)
		}
	}
	return nuclei, vessels
}
