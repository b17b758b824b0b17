package mesh

import (
	"slices"
	"testing"

	"repro/internal/geom"
)

// incident lists the faces of m that have vertex v.
func incident(m *Mesh, v int32) []Face {
	var fs []Face
	for _, f := range m.Faces {
		if f[0] == v || f[1] == v || f[2] == v {
			fs = append(fs, f)
		}
	}
	return fs
}

func TestOneRingIcosahedron(t *testing.T) {
	m := Icosahedron(1)
	edges := m.Edges()
	for v := int32(0); v < int32(m.NumVertices()); v++ {
		ring, ok := OneRing(v, incident(m, v), nil)
		if !ok {
			t.Fatalf("vertex %d: one-ring failed", v)
		}
		if len(ring) != 5 {
			t.Errorf("vertex %d: ring size %d, want 5", v, len(ring))
		}
		// Each consecutive ring pair must share an edge with v via a face.
		for i := range ring {
			j := (i + 1) % len(ring)
			if !slices.Contains(edges, MakeEdgeKey(ring[i], ring[j])) {
				t.Errorf("vertex %d: ring edge %v-%v not in mesh", v, ring[i], ring[j])
			}
		}
		// Ring must not contain v or duplicates.
		seen := map[int32]bool{}
		for _, r := range ring {
			if r == v {
				t.Errorf("vertex %d appears in its own ring", v)
			}
			if seen[r] {
				t.Errorf("vertex %d: duplicate ring member %d", v, r)
			}
			seen[r] = true
		}
	}
}

func TestOneRingOrientation(t *testing.T) {
	// The ring of a sphere vertex, walked in order, should wind CCW when
	// viewed from outside: the polygon normal should point away from the
	// center (positive dot with the vertex direction).
	m := Icosphere(1, 1)
	for v := int32(0); v < int32(m.NumVertices()); v++ {
		ring, ok := OneRing(v, incident(m, v), nil)
		if !ok {
			t.Fatalf("vertex %d: one-ring failed", v)
		}
		var normal geom.Vec3
		p0 := m.Vertices[ring[0]]
		for i := 1; i+1 < len(ring); i++ {
			e1 := m.Vertices[ring[i]].Sub(p0)
			e2 := m.Vertices[ring[i+1]].Sub(p0)
			normal = normal.Add(e1.Cross(e2))
		}
		if normal.Dot(m.Vertices[v]) <= 0 {
			t.Errorf("vertex %d: ring winds the wrong way", v)
		}
	}
}

func TestOneRingRejectsBoundary(t *testing.T) {
	// A single triangle's vertices have open fans.
	m := &Mesh{
		Vertices: []geom.Vec3{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0)},
		Faces:    []Face{{0, 1, 2}},
	}
	if _, ok := OneRing(0, incident(m, 0), nil); ok {
		t.Error("boundary vertex should not yield a one-ring")
	}
}

func TestOneRingRejectsNonDisk(t *testing.T) {
	// Two closed fans sharing only v: every edge finds a successor, but the
	// walk closes after three of the six faces.
	bowtie := []Face{{0, 1, 2}, {0, 2, 3}, {0, 3, 1}, {0, 4, 5}, {0, 5, 6}, {0, 6, 4}}
	if _, ok := OneRing(0, bowtie, nil); ok {
		t.Error("a vertex joining two fans should not yield a one-ring")
	}
	// Two faces leaving the same neighbor: a non-manifold fan.
	if _, ok := OneRing(0, []Face{{0, 1, 2}, {0, 1, 3}, {0, 3, 1}}, nil); ok {
		t.Error("a duplicated fan edge should not yield a one-ring")
	}
}

func TestEdgesSorted(t *testing.T) {
	m := Icosahedron(1)
	edges := m.Edges()
	if len(edges) != 30 {
		t.Errorf("icosahedron edges = %d, want 30", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a.Lo > b.Lo || (a.Lo == b.Lo && a.Hi >= b.Hi) {
			t.Fatal("edges not strictly sorted")
		}
	}
}

func TestMakeEdgeKeyCanonical(t *testing.T) {
	if MakeEdgeKey(5, 2) != MakeEdgeKey(2, 5) {
		t.Error("edge key not canonical")
	}
	if k := MakeEdgeKey(2, 5); k.Lo != 2 || k.Hi != 5 {
		t.Errorf("key = %v", k)
	}
}
