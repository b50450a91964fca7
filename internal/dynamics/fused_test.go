package dynamics

import (
	"math"
	"math/big"
	"testing"

	"ravenguard/internal/kinematics"
)

// tracedTorque is a deterministic torque profile that sweeps each joint
// through rest, the Coulomb smoothing band, and saturation: slow
// sinusoids with distinct frequencies plus a bias, evaluated identically
// for the reference and fused paths.
func tracedTorque(tick int, dt float64) [kinematics.NumJoints]float64 {
	t := float64(tick) * dt
	return [kinematics.NumJoints]float64{
		0.8 * math.Sin(2*math.Pi*0.7*t),
		0.02 + 0.6*math.Sin(2*math.Pi*1.1*t+1.0),
		0.3 * math.Sin(2*math.Pi*0.4*t+2.0),
	}
}

// stepReference advances the interface-dispatch reference path by one
// step: the Model's Deriv closure under a NewIntegrator scheme.
func stepReference(t *testing.T, scheme string) func(tau [kinematics.NumJoints]float64, x []float64, dt float64) {
	t.Helper()
	model, err := NewModel(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	integ, err := NewIntegrator(scheme, StateDim)
	if err != nil {
		t.Fatal(err)
	}
	return func(tau [kinematics.NumJoints]float64, x []float64, dt float64) {
		model.SetTorque(tau)
		integ.Step(model.Deriv, 0, x, dt)
	}
}

// testFusedEquivalence runs a 10 s teleop-scale trace through both the
// reference and the fused path and bounds their divergence. The two are
// not bit-identical by design — the fused kernel multiplies by
// precomputed reciprocals, uses polynomial sin/tanh, and expands gravity
// around an anchor — so the bound is a float tolerance, far tighter than
// any behavioral threshold in the detection pipeline (the guard's
// tightest alarm threshold is ~1e-3).
func testFusedEquivalence(t *testing.T, rk4 bool, scheme string, tol float64) {
	t.Helper()
	const (
		dt    = 1e-3
		steps = 10000 // 10 s at the 1 kHz control rate
	)
	ref := stepReference(t, scheme)
	fused, err := NewStepper(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var refState, fusedState State
	refState.SetJointPos(kinematics.DefaultLimits().Center(), kinematics.DefaultTransmission())
	fusedState = refState

	var maxDiff float64
	for tick := 0; tick < steps; tick++ {
		tau := tracedTorque(tick, dt)
		ref(tau, refState.X[:], dt)
		fused.SetTorque(tau)
		fused.Step(rk4, &fusedState.X, dt)
		for i := range refState.X {
			if d := math.Abs(refState.X[i] - fusedState.X[i]); d > maxDiff {
				maxDiff = d
			}
		}
		for i := range refState.X {
			if math.IsNaN(fusedState.X[i]) {
				t.Fatalf("tick %d: fused state[%d] is NaN", tick, i)
			}
		}
	}
	t.Logf("max |reference - fused| over %d steps: %.3e", steps, maxDiff)
	if maxDiff > tol {
		t.Fatalf("fused %s diverged from reference: max diff %.3e > tol %.3e", scheme, maxDiff, tol)
	}
}

func TestFusedMatchesReferenceRK4(t *testing.T) {
	testFusedEquivalence(t, true, "rk4", 1e-6)
}

func TestFusedMatchesReferenceEuler(t *testing.T) {
	testFusedEquivalence(t, false, "euler", 1e-6)
}

// TestFusedReanchorAfterJump teleports the link position far outside the
// gravity anchor radius and checks the next step against a fresh Stepper
// that never held a stale anchor: the re-anchor path must make history
// invisible.
func TestFusedReanchorAfterJump(t *testing.T) {
	warm, err := NewStepper(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	st.SetJointPos(kinematics.DefaultLimits().Center(), kinematics.DefaultTransmission())
	warm.SetTorque([3]float64{0.4, -0.2, 0.1})
	for i := 0; i < 100; i++ {
		warm.StepRK4(&st.X, 1e-3)
	}
	// Teleport every link well past anchorRad.
	for i := 0; i < kinematics.NumJoints; i++ {
		st.X[4*i+2] += 0.5
	}
	cold, err := NewStepper(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cold.SetTorque(warm.Torque())
	coldState := st
	warm.StepRK4(&st.X, 1e-3)
	cold.StepRK4(&coldState.X, 1e-3)
	for i := range st.X {
		if st.X[i] != coldState.X[i] {
			t.Fatalf("state[%d] after jump: warm %v != cold %v", i, st.X[i], coldState.X[i])
		}
	}
}

// TestFusedNaNRecovery feeds the stepper a NaN state — as fault
// injection can produce — and checks that NaN propagates (no panic, no
// silent masking) and that a subsequent finite state steps identically
// to a fresh Stepper: the NaN must not poison the gravity anchor.
func TestFusedNaNRecovery(t *testing.T) {
	s, err := NewStepper(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s.SetTorque([3]float64{0.1, 0.1, 0.05})
	var bad State
	for i := range bad.X {
		bad.X[i] = math.NaN()
	}
	s.StepRK4(&bad.X, 1e-3)
	for i := range bad.X {
		if !math.IsNaN(bad.X[i]) {
			t.Fatalf("state[%d]: NaN input produced finite output %v", i, bad.X[i])
		}
	}

	var good State
	good.SetJointPos(kinematics.DefaultLimits().Center(), kinematics.DefaultTransmission())
	fresh, err := NewStepper(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetTorque(s.Torque())
	freshState := good
	s.StepRK4(&good.X, 1e-3)
	fresh.StepRK4(&freshState.X, 1e-3)
	for i := range good.X {
		if good.X[i] != freshState.X[i] {
			t.Fatalf("state[%d] after NaN recovery: %v != fresh %v", i, good.X[i], freshState.X[i])
		}
	}
}

// TestFastTanh sweeps fastTanh against math.Tanh across the polynomial
// band, the math.Tanh mid band, and the saturated range, and checks the
// special values the kernel relies on.
func TestFastTanh(t *testing.T) {
	var maxErr float64
	for i := -300000; i <= 300000; i++ {
		x := float64(i) * 1e-4 // [-30, 30]
		if d := math.Abs(fastTanh(x) - math.Tanh(x)); d > maxErr {
			maxErr = d
		}
	}
	t.Logf("max |fastTanh - math.Tanh| on [-30,30]: %.3e", maxErr)
	if maxErr > 1e-10 {
		t.Fatalf("fastTanh error %.3e exceeds 1e-10", maxErr)
	}
	if fastTanh(0) != 0 {
		t.Fatalf("fastTanh(0) = %v, want exactly 0", fastTanh(0))
	}
	if fastTanh(math.Inf(1)) != 1 || fastTanh(math.Inf(-1)) != -1 {
		t.Fatal("fastTanh(±Inf) must saturate to ±1")
	}
	if !math.IsNaN(fastTanh(math.NaN())) {
		t.Fatal("fastTanh(NaN) must be NaN")
	}
	// The saturated shortcut must be value-identical to math.Tanh.
	for _, x := range []float64{20, 25, -20, -1e9} {
		if fastTanh(x) != math.Tanh(x) {
			t.Fatalf("fastTanh(%v) = %v differs from math.Tanh = %v", x, fastTanh(x), math.Tanh(x))
		}
	}
}

// TestTanhPolyVel checks the velocity-folded polynomial against the
// x-domain one across the friction band.
func TestTanhPolyVel(t *testing.T) {
	var maxErr float64
	for i := -12400; i <= 12400; i++ {
		v := float64(i) * 1e-6 // inside |v| < 0.0125
		got := tanhPolyVel(v, v*v)
		want := math.Tanh(v * invSmooth)
		if d := math.Abs(got - want); d > maxErr {
			maxErr = d
		}
	}
	t.Logf("max |tanhPolyVel - math.Tanh| on the band: %.3e", maxErr)
	if maxErr > 1e-10 {
		t.Fatalf("tanhPolyVel error %.3e exceeds 1e-10", maxErr)
	}
}

// TestTanhMidBand sweeps the table-driven mid-band kernel against
// math.Tanh over 2^21 points of 5/8 <= x < 20 and their negations, at a
// bound a few ulps of the result tight — not merely the 1e-10 friction
// tolerance — and checks its edges: odd symmetry, the exact ±1 just
// below saturation (TestFastTanh covers tanhTail's ±1 beyond it), and
// the math.Tanh fallback for NaN and out-of-band arguments.
func TestTanhMidBand(t *testing.T) {
	const n = 1 << 21
	var maxErr, worst float64
	for i := 0; i < n; i++ {
		x := 0.625 + (20-0.625)*float64(i)/n
		got := tanhMid(x)
		if d := math.Abs(got - math.Tanh(x)); d > maxErr {
			maxErr, worst = d, x
		}
		if neg := tanhMid(-x); neg != -got {
			t.Fatalf("tanhMid(-%v) = %v, want -tanhMid(%v) = %v", x, neg, x, -got)
		}
	}
	t.Logf("max |tanhMid - math.Tanh| on the mid band: %.3e at x = %v", maxErr, worst)
	if maxErr > 4.5e-16 {
		t.Fatalf("tanhMid error %.3e at x = %v exceeds 4.5e-16", maxErr, worst)
	}
	below20 := math.Nextafter(20, 0)
	if got := tanhMid(below20); got != 1 || tanhMid(-below20) != -1 {
		t.Fatalf("tanhMid(±%v) = ±%v, want ±1", below20, got)
	}
	// The out-of-contract fallback must stay exact for the values the
	// band branches can hand it under unusual inputs.
	for _, v := range []float64{math.NaN(), 20, 25, -1e9, math.Inf(1)} {
		got, want := tanhMid(v), math.Tanh(v)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("tanhMid(%v) = %v, want math.Tanh fallback %v", v, got, want)
		}
	}
}

// TestTanhExp2Table proves that every tanhExp2 entry c is 2^(j/64)
// correctly rounded: the open interval (c - ulp/2, c + ulp/2) of reals
// that round to c contains 2^(j/64), i.e.
// (c - ulp/2)^64 < 2^j < (c + ulp/2)^64, evaluated exactly in math/big
// (64 products of 54-bit values fit in 64·54 bits).
func TestTanhExp2Table(t *testing.T) {
	const prec = 64 * 54
	pow64 := func(x *big.Float) *big.Float {
		r := new(big.Float).SetPrec(prec).SetInt64(1)
		for i := 0; i < 64; i++ {
			r.Mul(r, x)
		}
		return r
	}
	for j, c := range tanhExp2 {
		half := (math.Nextafter(c, 2) - c) / 2
		lo := new(big.Float).SetPrec(prec).SetFloat64(c)
		lo.Sub(lo, big.NewFloat(half))
		hi := new(big.Float).SetPrec(prec).SetFloat64(c)
		hi.Add(hi, big.NewFloat(half))
		pow2j := new(big.Float).SetPrec(prec).SetMantExp(big.NewFloat(1), j)
		if pow64(lo).Cmp(pow2j) >= 0 || pow2j.Cmp(pow64(hi)) >= 0 {
			t.Errorf("tanhExp2[%d] = %x is not 2^(%d/64) correctly rounded", j, c, j)
		}
	}
}

// TestFastSinCos sweeps the polynomial sine/cosine against the stdlib
// over several workspace-scale ranges plus the large-argument fallback.
func TestFastSinCos(t *testing.T) {
	errAt := func(x float64) float64 {
		s, c := fastSinCos(x)
		d := math.Abs(s - math.Sin(x))
		if e := math.Abs(c - math.Cos(x)); e > d {
			d = e
		}
		if e := math.Abs(fastSin(x) - math.Sin(x)); e > d {
			d = e
		}
		return d
	}
	// Workspace-scale angles — what the gravity model actually sees.
	var maxErr float64
	for i := -80000; i <= 80000; i++ {
		if d := errAt(float64(i) * 1e-4); d > maxErr { // [-8, 8]: fold edges included
			maxErr = d
		}
	}
	t.Logf("max sin/cos error on [-8,8]: %.3e", maxErr)
	if maxErr > 1e-12 {
		t.Fatalf("fastSinCos error %.3e exceeds 1e-12", maxErr)
	}
	// Far range: the two-part reduction inherits the ~ulp(x) phase
	// uncertainty of the argument itself, so only a loose bound holds.
	maxErr = 0
	for i := 0; i <= 10000; i++ {
		if d := errAt(1e3 * float64(i)); d > maxErr {
			maxErr = d
		}
	}
	t.Logf("max sin/cos error on [0,1e7]: %.3e", maxErr)
	if maxErr > 1e-8 {
		t.Fatalf("far-range fastSinCos error %.3e exceeds 1e-8", maxErr)
	}
	if s, c := fastSinCos(math.NaN()); !math.IsNaN(s) || !math.IsNaN(c) {
		t.Fatal("fastSinCos(NaN) must be NaN")
	}
	if !math.IsNaN(fastSin(math.Inf(1))) {
		t.Fatal("fastSin(+Inf) must be NaN")
	}
}

// TestNewStepperValidates mirrors NewModel's parameter validation.
func TestNewStepperValidates(t *testing.T) {
	p := DefaultParams()
	p.Joints[1].MotorInertia = 0
	if _, err := NewStepper(p); err == nil {
		t.Fatal("NewStepper accepted zero motor inertia")
	}
}
