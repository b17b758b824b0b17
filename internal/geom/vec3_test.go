package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)

	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(2); got != V(2, 4, 6) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Neg(); got != V(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
	if got := a.Dot(b); got != 1*4+2*(-5)+3*6 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVecCross(t *testing.T) {
	x := V(1, 0, 0)
	y := V(0, 1, 0)
	z := V(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x × y = %v, want %v", got, z)
	}
	if got := y.Cross(z); got != x {
		t.Errorf("y × z = %v, want %v", got, x)
	}
	if got := z.Cross(x); got != y {
		t.Errorf("z × x = %v, want %v", got, y)
	}
}

func TestVecCrossOrthogonal(t *testing.T) {
	// Property: v × w is orthogonal to both v and w.
	f := func(vx, vy, vz, wx, wy, wz float64) bool {
		v := V(clampf(vx), clampf(vy), clampf(vz))
		w := V(clampf(wx), clampf(wy), clampf(wz))
		c := v.Cross(w)
		scale := v.Len() * w.Len() * c.Len()
		tol := 1e-9 * (scale + 1)
		return math.Abs(c.Dot(v)) <= tol && math.Abs(c.Dot(w)) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecCrossAnticommutative(t *testing.T) {
	f := func(vx, vy, vz, wx, wy, wz float64) bool {
		v := V(clampf(vx), clampf(vy), clampf(vz))
		w := V(clampf(wx), clampf(wy), clampf(wz))
		return v.Cross(w).ApproxEqual(w.Cross(v).Neg(), 1e-9*(v.Len()*w.Len()+1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecLen(t *testing.T) {
	if got := V(3, 4, 0).Len(); got != 5 {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := V(1, 2, 2).Len(); got != 3 {
		t.Errorf("Len = %v, want 3", got)
	}
	if got := V(3, 4, 0).Len2(); got != 25 {
		t.Errorf("Len2 = %v, want 25", got)
	}
}

func TestVecNormalize(t *testing.T) {
	v := V(10, 0, 0).Normalize()
	if v != V(1, 0, 0) {
		t.Errorf("Normalize = %v", v)
	}
	// Zero vector stays zero.
	if z := (Vec3{}).Normalize(); z != (Vec3{}) {
		t.Errorf("Normalize(0) = %v", z)
	}
	// Property: unit length after normalize for non-zero input.
	f := func(x, y, z float64) bool {
		v := V(clampf(x), clampf(y), clampf(z))
		if v.Len() < 1e-9 {
			return true
		}
		return math.Abs(v.Normalize().Len()-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecLerp(t *testing.T) {
	a := V(0, 0, 0)
	b := V(10, 20, 30)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != V(5, 10, 15) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestVecMinMaxComponent(t *testing.T) {
	a := V(1, 5, 3)
	b := V(2, 4, 6)
	if got := a.Min(b); got != V(1, 4, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V(2, 5, 6) {
		t.Errorf("Max = %v", got)
	}
	for i, want := range []float64{1, 5, 3} {
		if got := a.Component(i); got != want {
			t.Errorf("Component(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestVecDist(t *testing.T) {
	a := V(1, 1, 1)
	b := V(4, 5, 1)
	if got := a.Dist(b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := a.Dist2(b); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
}

// clampf maps an arbitrary quick-generated float into a tame range so
// property tests don't explode on astronomically large values.
func clampf(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e4)
}
