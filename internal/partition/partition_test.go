package partition

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/mesh"
)

func TestSkeletonCounts(t *testing.T) {
	m := mesh.Icosphere(5, 2)
	for _, k := range []int{1, 3, 8} {
		pts := Skeleton(m, k)
		if len(pts) != k {
			t.Errorf("Skeleton(%d) returned %d points", k, len(pts))
		}
		inside := m.Bounds().Expand(1e-9)
		for _, p := range pts {
			if !inside.ContainsPoint(p) {
				t.Errorf("skeleton point %v outside the mesh bounds", p)
			}
		}
	}
	// Clamping.
	if got := Skeleton(m, 0); len(got) != 1 {
		t.Errorf("k=0 should clamp to 1, got %d", len(got))
	}
	if got := Skeleton(m, m.NumFaces()+100); len(got) != m.NumFaces() {
		t.Errorf("k beyond faces should clamp, got %d", len(got))
	}
	if got := Skeleton(&mesh.Mesh{}, 3); got != nil {
		t.Error("empty mesh should yield nil skeleton")
	}
}

func TestPartitionCoversAllFaces(t *testing.T) {
	m := mesh.Tube(
		[]geom.Vec3{geom.V(0, 0, 0), geom.V(0, 0, 5), geom.V(2, 0, 10), geom.V(2, 2, 15)},
		[]float64{1, 1.3, 1, 0.8}, 12)
	groups := PartitionMesh(m, 4)
	if len(groups) == 0 || len(groups) > 4 {
		t.Fatalf("group count = %d", len(groups))
	}
	seen := make([]bool, m.NumFaces())
	for _, g := range groups {
		if len(g.Faces) == 0 {
			t.Error("empty group returned")
		}
		for _, f := range g.Faces {
			if seen[f] {
				t.Fatalf("face %d in two groups", f)
			}
			seen[f] = true
			if !g.Box.Contains(m.Triangle(int(f)).Bounds()) {
				t.Fatalf("group box does not contain face %d", f)
			}
		}
	}
	for f, s := range seen {
		if !s {
			t.Fatalf("face %d unassigned", f)
		}
	}
}

func TestPartitionTightensBoxes(t *testing.T) {
	// For an elongated object, the union volume of group boxes should be
	// far below the single-MBB volume — the whole point of the technique.
	m := mesh.Tube(
		[]geom.Vec3{geom.V(0, 0, 0), geom.V(0, 0, 10), geom.V(8, 0, 20), geom.V(8, 8, 30)},
		[]float64{1, 1, 1, 1}, 12)
	groups := PartitionMesh(m, 8)
	var sum float64
	for _, g := range groups {
		sum += g.Box.Volume()
	}
	if whole := m.Bounds().Volume(); sum > 0.8*whole {
		t.Errorf("group boxes (%v) barely tighter than MBB (%v)", sum, whole)
	}
}

func TestGroupCount(t *testing.T) {
	if GroupCount(100, 256) != 1 {
		t.Error("simple object should stay unpartitioned")
	}
	if GroupCount(3000, 256) != 11 {
		t.Errorf("GroupCount(3000,256) = %d", GroupCount(3000, 256))
	}
	if GroupCount(1000, 0) != 3 {
		t.Errorf("default target wrong: %d", GroupCount(1000, 0))
	}
}

func TestGroupsCoverEveryFaceOnce(t *testing.T) {
	m := mesh.Icosphere(2, 1)
	seen := make([]int, m.NumFaces())
	for _, g := range PartitionMesh(m, 2) {
		for _, f := range g.Faces {
			seen[f]++
		}
	}
	for f, n := range seen {
		if n != 1 {
			t.Fatalf("face %d assigned to %d groups", f, n)
		}
	}
}

func TestAssignFacesEmpty(t *testing.T) {
	m := mesh.Icosphere(1, 1)
	if got := AssignFaces(m, nil); got != nil {
		t.Error("nil skeleton should return nil")
	}
	if got := AssignFaces(&mesh.Mesh{}, []geom.Vec3{{}}); got != nil {
		t.Error("empty mesh should return nil")
	}
}
