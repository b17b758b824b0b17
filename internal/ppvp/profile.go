package ppvp

import "repro/internal/mesh"

// SharedFaceFractions reports, for each consecutive LOD pair (k, k+1), the
// fraction of LOD-k faces that survive unchanged into LOD k+1 — the
// statistic behind the paper's §6.4 "repeated face pair evaluation"
// discussion (their datasets average ≈15.6 %). A face shared between two
// LODs is evaluated twice when both LODs are refined, so low sharing keeps
// the progressive refinement's redundant work small.
func SharedFaceFractions(c *Compressed) ([]float64, error) {
	dec, err := c.NewDecoder()
	if err != nil {
		return nil, err
	}
	prev, err := dec.DecodeTo(0)
	if err != nil {
		return nil, err
	}
	// Faces are compared by their vertex coordinates (permanent indices
	// are stable across LODs, but coordinate keys also guard against any
	// reindexing).
	key := func(m *mesh.Mesh, f mesh.Face) [9]float64 {
		var k [9]float64
		for i := 0; i < 3; i++ {
			v := m.Vertices[f[i]]
			k[3*i], k[3*i+1], k[3*i+2] = v.X, v.Y, v.Z
		}
		return k
	}
	canonical := func(m *mesh.Mesh, f mesh.Face) [9]float64 {
		// Rotate the smallest vertex (lexicographically) to the front,
		// preserving orientation.
		ks := [3][3]float64{}
		for i := 0; i < 3; i++ {
			v := m.Vertices[f[i]]
			ks[i] = [3]float64{v.X, v.Y, v.Z}
		}
		lead := 0
		for i := 1; i < 3; i++ {
			if ks[i] != ks[lead] && lessTriple(ks[i], ks[lead]) {
				lead = i
			}
		}
		return key(m, mesh.Face{f[(lead)%3], f[(lead+1)%3], f[(lead+2)%3]})
	}

	var fractions []float64
	for lod := 1; lod <= c.MaxLOD(); lod++ {
		cur, err := dec.DecodeTo(lod)
		if err != nil {
			return nil, err
		}
		curSet := make(map[[9]float64]bool, len(cur.Faces))
		for _, f := range cur.Faces {
			curSet[canonical(cur, f)] = true
		}
		shared := 0
		for _, f := range prev.Faces {
			if curSet[canonical(prev, f)] {
				shared++
			}
		}
		if len(prev.Faces) > 0 {
			fractions = append(fractions, float64(shared)/float64(len(prev.Faces)))
		} else {
			fractions = append(fractions, 0)
		}
		prev = cur
	}
	return fractions, nil
}

func lessTriple(a, b [3]float64) bool {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// ProfileProtruding examines every vertex of a mesh once (as the first
// decimation round would) and reports how many are protruding. This is the
// dataset profile from the paper's §6.2: ≈99 % of nucleus vertices and
// ≈75 % of vessel vertices are protruding.
//
// A vertex counts as examined when its one-ring is a simple disk and at
// least one candidate triangulation of the hole is manifold-safe; it counts
// as protruding when at least one safe triangulation passes the protruding
// test.
func ProfileProtruding(m *mesh.Mesh) (protruding, examined int) {
	w := newWork(m.Vertices, m.Faces)
	for v := int32(0); int(v) < len(w.verts); v++ {
		ring, pts, ok := w.ringOf(v)
		if !ok {
			continue
		}
		valid, prot := false, false
		check := func(patch [][3]uint16) {
			if patch == nil || !w.patchValid(ring, patch) {
				return
			}
			valid = true
			if isProtruding(w.verts[v], pts, patch) {
				prot = true
			}
		}
		if ear, ok := triangulateRing(pts, &w.tri); ok {
			check(ear)
		}
		for apex := 0; apex < len(ring) && !prot; apex++ {
			check(fanTriangulation(len(ring), apex, w.tri.tris))
		}
		if valid {
			examined++
			if prot {
				protruding++
			}
		}
	}
	return protruding, examined
}
