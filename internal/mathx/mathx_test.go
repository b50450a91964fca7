package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec3Arithmetic(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, -5, 6}
	if got := v.Add(w); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %+v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %+v", got)
	}
	if got := v.Dot(w); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{-2, 1, 5}
	c := v.Cross(w)
	if !ApproxEqual(c.Dot(v), 0, 1e-12) || !ApproxEqual(c.Dot(w), 0, 1e-12) {
		t.Fatalf("cross product %+v not orthogonal to operands", c)
	}
}

func TestVec3NormUnit(t *testing.T) {
	v := Vec3{3, 4, 0}
	if v.Norm() != 5 {
		t.Fatalf("Norm = %v, want 5", v.Norm())
	}
	if u := v.Unit(); !ApproxEqual(u.Norm(), 1, 1e-12) {
		t.Fatalf("Unit().Norm() = %v", u.Norm())
	}
	zero := Vec3{}
	if zero.Unit() != zero {
		t.Fatal("Unit of zero vector must stay zero")
	}
}

func TestVec3IsFinite(t *testing.T) {
	if !(Vec3{1, 2, 3}).IsFinite() {
		t.Fatal("finite vector reported non-finite")
	}
	if (Vec3{math.NaN(), 0, 0}).IsFinite() {
		t.Fatal("NaN vector reported finite")
	}
	if (Vec3{0, math.Inf(1), 0}).IsFinite() {
		t.Fatal("Inf vector reported finite")
	}
}

func TestRotationOrthonormal(t *testing.T) {
	basis := [3]Vec3{{X: 1}, {Y: 1}, {Z: 1}}
	for _, r := range []Mat3{RotX(0.7), RotY(-1.2), RotZ(2.9)} {
		// R^T R = I for any rotation: R's columns, the images of the
		// basis vectors, are unit length and mutually orthogonal.
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if got := r.Apply(basis[i]).Dot(r.Apply(basis[j])); !ApproxEqual(got, want, 1e-12) {
					t.Fatalf("(R^T R)[%d][%d] = %v", i, j, got)
				}
			}
		}
	}
}

func TestRotZRotatesXToY(t *testing.T) {
	got := RotZ(math.Pi / 2).Apply(Vec3{X: 1})
	if !ApproxEqual(got.X, 0, 1e-12) || !ApproxEqual(got.Y, 1, 1e-12) {
		t.Fatalf("RotZ(90deg) x-hat = %+v, want y-hat", got)
	}
}

func TestMat3MulAssociativeQuick(t *testing.T) {
	f := func(a, b, c float64) bool {
		ra, rb, rc := RotX(a), RotY(b), RotZ(c)
		lhs := ra.Mul(rb).Mul(rc)
		rhs := ra.Mul(rb.Mul(rc))
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if !ApproxEqual(lhs.M[i][j], rhs.M[i][j], 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestClampPanicsOnInvertedRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp(0, 1, -1) did not panic")
		}
	}()
	Clamp(0, 1, -1)
}

func TestClampInt(t *testing.T) {
	if got := ClampInt(99, -3, 7); got != 7 {
		t.Fatalf("ClampInt = %d", got)
	}
	if got := ClampInt(-99, -3, 7); got != -3 {
		t.Fatalf("ClampInt = %d", got)
	}
}

func TestDegRadRoundTrip(t *testing.T) {
	for _, d := range []float64{0, 45, 90, -180, 720} {
		if got := Deg(Rad(d)); !ApproxEqual(got, d, 1e-12) {
			t.Errorf("Deg(Rad(%v)) = %v", d, got)
		}
	}
}

func TestWrapAngle(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-math.Pi / 2, -math.Pi / 2},
	}
	for _, tt := range tests {
		if got := WrapAngle(tt.in); !ApproxEqual(got, tt.want, 1e-12) {
			t.Errorf("WrapAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestWrapAngleRangeQuick(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		w := WrapAngle(a)
		return w > -math.Pi-1e-9 && w <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSign(t *testing.T) {
	if Sign(3) != 1 || Sign(-2) != -1 || Sign(0) != 0 {
		t.Fatal("Sign misbehaves")
	}
}

func TestLerp(t *testing.T) {
	if Lerp(2, 4, 0.5) != 3 {
		t.Fatal("Lerp midpoint wrong")
	}
	if Lerp(2, 4, 0) != 2 || Lerp(2, 4, 1) != 4 {
		t.Fatal("Lerp endpoints wrong")
	}
}
