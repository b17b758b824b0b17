package mesh

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestCubeMeasures(t *testing.T) {
	m := Cube(geom.V(0, 0, 0), geom.V(2, 2, 2))
	if err := m.Validate(); err != nil {
		t.Fatalf("cube invalid: %v", err)
	}
	if got := m.Volume(); math.Abs(got-8) > 1e-12 {
		t.Errorf("Volume = %v, want 8", got)
	}
	if got := surfaceArea(m); math.Abs(got-24) > 1e-12 {
		t.Errorf("surface area = %v, want 24", got)
	}
	if got := m.Centroid(); !got.ApproxEqual(geom.V(1, 1, 1), 1e-9) {
		t.Errorf("Centroid = %v, want (1,1,1)", got)
	}
	b := m.Bounds()
	if b.Min != geom.V(0, 0, 0) || b.Max != geom.V(2, 2, 2) {
		t.Errorf("Bounds = %v", b)
	}
	if got := eulerCharacteristic(m); got != 2 {
		t.Errorf("Euler characteristic = %d, want 2", got)
	}
}

func TestTetrahedronValid(t *testing.T) {
	m := Tetrahedron(1)
	if err := m.Validate(); err != nil {
		t.Fatalf("tetrahedron invalid: %v", err)
	}
	if m.Volume() <= 0 {
		t.Errorf("Volume = %v, want > 0", m.Volume())
	}
	if got := eulerCharacteristic(m); got != 2 {
		t.Errorf("Euler characteristic = %d, want 2", got)
	}
}

func TestIcosphere(t *testing.T) {
	for level, wantFaces := range map[int]int{0: 20, 1: 80, 2: 320, 3: 1280} {
		m := Icosphere(1, level)
		if got := m.NumFaces(); got != wantFaces {
			t.Errorf("level %d: faces = %d, want %d", level, got, wantFaces)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("level %d: invalid: %v", level, err)
		}
		// Volume should approach 4π/3 ≈ 4.18879 from below.
		vol := m.Volume()
		sphereVol := 4 * math.Pi / 3
		if vol <= 0 || vol > sphereVol {
			t.Errorf("level %d: volume %v out of (0, %v]", level, vol, sphereVol)
		}
		if level >= 2 && vol < 0.95*sphereVol {
			t.Errorf("level %d: volume %v too far from sphere %v", level, vol, sphereVol)
		}
		// All vertices on the sphere.
		for _, v := range m.Vertices {
			if math.Abs(v.Len()-1) > 1e-12 {
				t.Fatalf("level %d: vertex %v off sphere", level, v)
			}
		}
	}
}

func TestEllipsoid(t *testing.T) {
	m := Ellipsoid(3, 2, 1, 2)
	if err := m.Validate(); err != nil {
		t.Fatalf("ellipsoid invalid: %v", err)
	}
	want := 4 * math.Pi / 3 * 3 * 2 * 1
	if vol := m.Volume(); vol <= 0.9*want || vol > want {
		t.Errorf("volume = %v, want ≈ %v", vol, want)
	}
}

func TestTube(t *testing.T) {
	path := []geom.Vec3{geom.V(0, 0, 0), geom.V(0, 0, 1), geom.V(0, 0, 2), geom.V(0, 0.5, 3)}
	radii := []float64{0.3, 0.3, 0.3, 0.3}
	m := Tube(path, radii, 8)
	if m == nil {
		t.Fatal("Tube returned nil")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("tube invalid: %v", err)
	}
	if m.Volume() <= 0 {
		t.Errorf("tube volume %v, want > 0", m.Volume())
	}
	// Roughly π r² L for a straight tube (octagonal cross-section is smaller).
	if m.Volume() > math.Pi*0.09*3.3 {
		t.Errorf("tube volume %v too large", m.Volume())
	}

	// Bad inputs return nil.
	if Tube(path[:1], radii[:1], 8) != nil {
		t.Error("short path should return nil")
	}
	if Tube(path, radii[:2], 8) != nil {
		t.Error("mismatched radii should return nil")
	}
	if Tube(path, radii, 2) != nil {
		t.Error("segments<3 should return nil")
	}
}

func TestContainsPoint(t *testing.T) {
	m := Icosphere(1, 2)
	if !m.ContainsPoint(geom.V(0, 0, 0)) {
		t.Error("center should be inside")
	}
	if !m.ContainsPoint(geom.V(0.5, 0.2, 0.1)) {
		t.Error("interior point should be inside")
	}
	if m.ContainsPoint(geom.V(2, 0, 0)) {
		t.Error("exterior point should be outside")
	}
	if m.ContainsPoint(geom.V(0.9, 0.9, 0.9)) {
		t.Error("corner point outside sphere should be outside")
	}
}

func TestTranslateScale(t *testing.T) {
	m := Cube(geom.V(0, 0, 0), geom.V(1, 1, 1))
	m.Translate(geom.V(10, 0, 0))
	if got := m.Bounds().Min; got != geom.V(10, 0, 0) {
		t.Errorf("after Translate, Min = %v", got)
	}
	m2 := Cube(geom.V(0, 0, 0), geom.V(1, 1, 1))
	m2.Scale(3)
	if got := m2.Volume(); math.Abs(got-27) > 1e-9 {
		t.Errorf("after Scale, Volume = %v, want 27", got)
	}
}

func TestValidateCatchesDefects(t *testing.T) {
	// Out-of-range index.
	bad := &Mesh{Vertices: []geom.Vec3{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0)}, Faces: []Face{{0, 1, 5}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range index not caught")
	}

	// Degenerate face.
	bad2 := &Mesh{Vertices: []geom.Vec3{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0)}, Faces: []Face{{0, 1, 1}}}
	if err := bad2.Validate(); err == nil {
		t.Error("degenerate face not caught")
	}

	// Open surface (single triangle).
	bad3 := &Mesh{Vertices: []geom.Vec3{geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0)}, Faces: []Face{{0, 1, 2}}}
	if err := bad3.Validate(); err == nil {
		t.Error("open surface not caught")
	}

	// Inconsistent winding: flip one face of a tetrahedron.
	m := Tetrahedron(1)
	m.Faces[0] = Face{m.Faces[0][0], m.Faces[0][2], m.Faces[0][1]}
	if err := m.Validate(); err == nil {
		t.Error("inconsistent winding not caught")
	}

	// Inverted mesh (all faces inward).
	inv := Tetrahedron(1)
	for i, f := range inv.Faces {
		inv.Faces[i] = Face{f[0], f[2], f[1]}
	}
	if err := inv.Validate(); err == nil {
		t.Error("negative volume not caught")
	}
}

func TestVolumeAdditivity(t *testing.T) {
	// Two disjoint cubes as one mesh: volume adds.
	a := Cube(geom.V(0, 0, 0), geom.V(1, 1, 1))
	b := Cube(geom.V(5, 0, 0), geom.V(6, 1, 1))
	combined := clone(a)
	off := int32(len(combined.Vertices))
	combined.Vertices = append(combined.Vertices, b.Vertices...)
	for _, f := range b.Faces {
		combined.Faces = append(combined.Faces, Face{f[0] + off, f[1] + off, f[2] + off})
	}
	if got := combined.Volume(); math.Abs(got-2) > 1e-12 {
		t.Errorf("combined volume = %v, want 2", got)
	}
}
