package core

import (
	"math"
	"testing"

	"ravenguard/internal/console"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/motor"
	"ravenguard/internal/sim"
	"ravenguard/internal/trajectory"
	"ravenguard/internal/usb"
)

func TestNewGuardRejectsUnknownResync(t *testing.T) {
	if _, err := NewGuard(Config{Resync: "ukf"}); err == nil {
		t.Fatal("unknown resync scheme accepted")
	}
}

// modelError runs a fault-free session with a guard using the given resync
// scheme and returns the mean absolute motor-position model error.
func modelError(t *testing.T, resync string) float64 {
	t.Helper()
	guard, err := NewGuard(Config{Resync: resync})
	if err != nil {
		t.Fatal(err)
	}
	rig, err := sim.New(sim.Config{
		Seed:   401,
		Script: console.StandardScript(5),
		Traj:   trajectory.Standard()[0],
		Guards: []sim.Hook{guard},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	rig.Observe(func(si sim.StepInfo) {
		if si.T < 3 {
			return
		}
		mp, _ := guard.ModelState()
		for i := 0; i < kinematics.NumJoints; i++ {
			sum += math.Abs(mp[i] - si.MposTrue[i])
		}
		n += kinematics.NumJoints
	})
	if _, err := rig.Run(0); err != nil {
		t.Fatal(err)
	}
	return sum / float64(n)
}

func TestKalmanResyncTracksPlant(t *testing.T) {
	prop := modelError(t, "proportional")
	kalman := modelError(t, "kalman")
	// Both schemes must keep the model usable (< 1 deg motor error), and
	// the Kalman filter should not be dramatically worse.
	if prop > 0.02 {
		t.Fatalf("proportional resync error %v rad", prop)
	}
	if kalman > 0.02 {
		t.Fatalf("kalman resync error %v rad", kalman)
	}
	if kalman > 4*prop {
		t.Fatalf("kalman error %v far above proportional %v", kalman, prop)
	}
}

func TestInnovationResidualFlagsEncoderTampering(t *testing.T) {
	// Table I's read-path attack: corrupt the encoder feedback the control
	// software sees. The guard (in trusted hardware) sees true feedback —
	// but if an attacker tampers with the shared stream, the innovation
	// residual must flag it. Simulate by feeding the guard a forged frame
	// series directly.
	guard, err := NewGuard(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Sync at a pose.
	trans := kinematics.DefaultTransmission()
	pose := kinematics.DefaultLimits().Center()
	honest := feedbackFor(pose, trans)
	guard.OnFeedback(honest, 0)
	for i := 0; i < 20; i++ {
		guard.OnFeedback(honest, float64(i)*1e-3)
	}
	if guard.FeedbackSuspect() {
		t.Fatal("honest feedback flagged as suspect")
	}
	// Now tamper: +2000 counts (~3 rad of motor) on channel 0.
	forged := honest
	forged.Encoder[0] += 2000
	for i := 0; i < 10; i++ {
		guard.OnFeedback(forged, float64(20+i)*1e-3)
	}
	if !guard.FeedbackSuspect() {
		t.Fatalf("tampered feedback not flagged; innovation streak %d", guard.innovStreak)
	}
}

func TestInnovationTransientDoesNotFlag(t *testing.T) {
	// A single corrupted frame (below the run-length requirement) must not
	// latch the suspect flag.
	guard, err := NewGuard(Config{})
	if err != nil {
		t.Fatal(err)
	}
	trans := kinematics.DefaultTransmission()
	pose := kinematics.DefaultLimits().Center()
	honest := feedbackFor(pose, trans)
	guard.OnFeedback(honest, 0)
	for i := 0; i < 10; i++ {
		guard.OnFeedback(honest, float64(i)*1e-3)
	}
	forged := honest
	forged.Encoder[0] += 300        // ~0.47 rad: above the limit but survivable
	guard.OnFeedback(forged, 0.011) // one glitch
	for i := 0; i < 10; i++ {
		guard.OnFeedback(honest, 0.012+float64(i)*1e-3)
	}
	if guard.FeedbackSuspect() {
		t.Fatal("single glitch latched the suspect flag")
	}
}

func feedbackFor(jp kinematics.JointPos, trans kinematics.Transmission) usb.Feedback {
	bank := defaultBankForTest()
	mp := trans.ToMotor(jp)
	var fb usb.Feedback
	for i := 0; i < kinematics.NumJoints; i++ {
		fb.Encoder[i] = bank[i].EncoderCounts(mp[i])
	}
	return fb
}

func defaultBankForTest() motor.Bank { return motor.DefaultBank() }
