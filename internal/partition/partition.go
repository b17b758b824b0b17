// Package partition implements the skeleton-based object partitioning of
// the paper's §5.1: a complex object is split into simple sub-objects, each
// approximated by its own MBB. Indexing those finer boxes instead of one
// coarse MBB both tightens filtering and shrinks the face sets evaluated in
// the refinement step — the technique that gives the paper its 39×
// improvement for brute-force within joins on vessels.
//
// Skeleton extraction here is farthest-point sampling over face centroids
// followed by a few Lloyd iterations, a deterministic stand-in for the
// curve-skeleton extraction of the original implementation: what matters to
// the query engine is that faces are grouped into spatially coherent
// clusters with tight boxes, which this provides.
package partition

import (
	"math"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// Group is one sub-object: the indices of the faces assigned to a skeleton
// point and their bounding box.
type Group struct {
	Faces []int32
	Box   geom.Box3
}

// Skeleton returns k skeleton points for the mesh: farthest-point samples
// of the face centroids refined with Lloyd iterations. k is clamped to
// [1, number of faces].
func Skeleton(m *mesh.Mesh, k int) []geom.Vec3 {
	nf := m.NumFaces()
	if nf == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > nf {
		k = nf
	}
	centroids := make([]geom.Vec3, nf)
	for i := 0; i < nf; i++ {
		centroids[i] = m.Triangle(i).Centroid()
	}

	// Farthest-point sampling, seeded at the centroid-closest face for
	// determinism.
	mean := geom.Vec3{}
	for _, c := range centroids {
		mean = mean.Add(c)
	}
	mean = mean.Mul(1 / float64(nf))
	seed := 0
	best := math.Inf(1)
	for i, c := range centroids {
		if d := c.Dist2(mean); d < best {
			best, seed = d, i
		}
	}

	pts := []geom.Vec3{centroids[seed]}
	minDist := make([]float64, nf)
	for i := range minDist {
		minDist[i] = centroids[i].Dist2(pts[0])
	}
	for len(pts) < k {
		far, farD := 0, -1.0
		for i, d := range minDist {
			if d > farD {
				far, farD = i, d
			}
		}
		p := centroids[far]
		pts = append(pts, p)
		for i := range minDist {
			if d := centroids[i].Dist2(p); d < minDist[i] {
				minDist[i] = d
			}
		}
	}

	// Lloyd refinement: move each skeleton point to the mean of its
	// assigned centroids.
	assign := make([]int, nf)
	for iter := 0; iter < 4; iter++ {
		for i, c := range centroids {
			bestJ, bestD := 0, math.Inf(1)
			for j, p := range pts {
				if d := c.Dist2(p); d < bestD {
					bestJ, bestD = j, d
				}
			}
			assign[i] = bestJ
		}
		sums := make([]geom.Vec3, len(pts))
		counts := make([]int, len(pts))
		for i, c := range centroids {
			sums[assign[i]] = sums[assign[i]].Add(c)
			counts[assign[i]]++
		}
		for j := range pts {
			if counts[j] > 0 {
				pts[j] = sums[j].Mul(1 / float64(counts[j]))
			}
		}
	}
	return pts
}

// PartitionMesh assigns every face of m to its nearest of k skeleton points
// and returns the non-empty groups with their boxes.
func PartitionMesh(m *mesh.Mesh, k int) []Group {
	pts := Skeleton(m, k)
	return AssignFaces(m, pts)
}

// AssignFaces groups the faces of m by nearest skeleton point.
func AssignFaces(m *mesh.Mesh, skeleton []geom.Vec3) []Group {
	if len(skeleton) == 0 || m.NumFaces() == 0 {
		return nil
	}
	groups := make([]Group, len(skeleton))
	for i := range groups {
		groups[i].Box = geom.EmptyBox()
	}
	for f := 0; f < m.NumFaces(); f++ {
		tri := m.Triangle(f)
		c := tri.Centroid()
		bestJ, bestD := 0, math.Inf(1)
		for j, p := range skeleton {
			if d := c.Dist2(p); d < bestD {
				bestJ, bestD = j, d
			}
		}
		groups[bestJ].Faces = append(groups[bestJ].Faces, int32(f))
		groups[bestJ].Box = groups[bestJ].Box.Union(tri.Bounds())
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g.Faces) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// GroupCount returns the number of sub-objects to use for a mesh with the
// given face count: roughly one group per targetFaces faces, minimum one.
// Simple objects (≤ targetFaces faces) stay unpartitioned, matching the
// paper's observation that partitioning only pays off for complex shapes.
func GroupCount(faces, targetFaces int) int {
	if targetFaces <= 0 {
		targetFaces = 256
	}
	k := faces / targetFaces
	if k < 1 {
		k = 1
	}
	return k
}
