package dynamics

import (
	"testing"

	"ravenguard/internal/kinematics"
)

func benchFused(b *testing.B, rk4 bool) {
	s, err := NewStepper(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	var st State
	st.SetJointPos(kinematics.DefaultLimits().Center(), kinematics.DefaultTransmission())
	s.SetTorque([3]float64{0.01, 0.01, 0.005})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(rk4, &st.X, 1e-3)
	}
}

// benchFusedMidband steps, on every iteration, a fresh copy of one state
// in which joint 2's link (and motor, so the cable is unstretched) moves
// at 0.05 m/s: 2.5 smoothing widths, inside tanhMid's band for all four
// RK4 stages, so each step runs that joint's friction through tanhMid.
// Joints 0 and 1 rest inside the polynomial band.
func benchFusedMidband(b *testing.B) {
	s, err := NewStepper(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	tr := kinematics.DefaultTransmission()
	var x0 State
	x0.SetJointPos(kinematics.DefaultLimits().Center(), tr)
	x0.X[idxLinkVel(2)] = 0.05
	x0.X[idxMotorVel(2)] = 0.05 * tr.Ratio[2]
	s.SetTorque([3]float64{0.01, 0.01, 0.005})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := x0.X
		s.StepRK4(&x, 1e-3)
	}
}

func BenchmarkFusedStepEuler(b *testing.B) { benchFused(b, false) }

func BenchmarkFusedStepRK4(b *testing.B) {
	b.Run("rest", func(b *testing.B) { benchFused(b, true) })
	b.Run("midband", benchFusedMidband)
}

// The *Reference benchmarks step the generic Integrator over the Model's
// derivative closure (reference_test.go), the baseline the fused kernels
// are measured against.
func BenchmarkDynamicsStepEulerReference(b *testing.B) {
	benchDynamicsStepReference(b, "euler")
}

func BenchmarkDynamicsStepRK4Reference(b *testing.B) {
	benchDynamicsStepReference(b, "rk4")
}

func benchDynamicsStepReference(b *testing.B, scheme string) {
	b.Helper()
	model, err := NewModel(DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	integ, err := NewIntegrator(scheme, StateDim)
	if err != nil {
		b.Fatal(err)
	}
	var st State
	st.SetJointPos(kinematics.DefaultLimits().Center(), kinematics.DefaultTransmission())
	model.SetTorque([3]float64{0.01, 0.01, 0.005})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		integ.Step(model.Deriv, 0, st.X[:], 1e-3)
	}
}
