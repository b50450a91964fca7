package inject

import (
	"testing"

	"ravenguard/internal/console"
	"ravenguard/internal/control"
	"ravenguard/internal/mathx"

	"ravenguard/internal/sim"
	"ravenguard/internal/statemachine"
	"ravenguard/internal/trajectory"
)

func TestScenarioAValidation(t *testing.T) {
	if _, err := NewScenarioA(ScenarioAParams{Magnitude: -1}); err == nil {
		t.Fatal("negative magnitude accepted")
	}
	if _, err := NewScenarioA(ScenarioAParams{StartAfterTicks: -1}); err == nil {
		t.Fatal("negative timing accepted")
	}
	a, err := NewScenarioA(ScenarioAParams{Magnitude: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if a.dir != (mathx.Vec3{X: 1}) {
		t.Fatalf("default direction = %+v", a.dir)
	}
}

func TestScenarioAHookOnlyActsOnPedalDown(t *testing.T) {
	a, err := NewScenarioA(ScenarioAParams{Magnitude: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	hook := a.Hook()
	in := control.Input{PedalDown: false}
	hook(0, &in)
	if in.Delta.Norm() != 0 || a.Injected() != 0 {
		t.Fatal("hook acted with pedal up")
	}
	in = control.Input{PedalDown: true}
	hook(0, &in)
	if in.Delta.X != 1e-4 || a.Injected() != 1 {
		t.Fatalf("hook inactive on pedal down: %+v", in.Delta)
	}
}

func TestScenarioAWindow(t *testing.T) {
	a, err := NewScenarioA(ScenarioAParams{Magnitude: 1e-4, StartAfterTicks: 2, ActivationTicks: 3})
	if err != nil {
		t.Fatal(err)
	}
	hook := a.Hook()
	hook(0, &control.Input{}) // pedal up: not a triggered frame
	touched := 0
	for i := 0; i < 10; i++ {
		if want := max(2-i, 0); a.FramesUntilActive() != want {
			t.Fatalf("FramesUntilActive = %d after %d pedal-down frames, want %d", a.FramesUntilActive(), i, want)
		}
		in := control.Input{PedalDown: true}
		hook(0, &in)
		if in.Delta.Norm() > 0 {
			touched++
		}
	}
	if touched != 3 || a.Injected() != 3 {
		t.Fatalf("touched %d frames, injected %d; want 3", touched, a.Injected())
	}
}

func TestScenarioBValidation(t *testing.T) {
	if _, err := NewScenarioB(ScenarioBParams{Channel: 9}); err == nil {
		t.Fatal("bad channel accepted")
	}
	if _, err := NewScenarioB(ScenarioBParams{ActivationTicks: -1}); err == nil {
		t.Fatal("negative timing accepted")
	}
	if _, err := NewScenarioB(ScenarioBParams{Value: 100}); err != nil {
		t.Fatal(err)
	}
}

// runVariant assembles and runs a session with the given variant applied
// mid-procedure, returning summary observations.
type variantOutcome struct {
	finalState   statemachine.State
	plcEStop     bool
	ikFails      int
	safetyTrips  int
	maxDev       float64 // vs controller's own desired tip
	brakedInDown int     // ticks where PLC braked while software says Pedal Down
	tipRange     float64 // total spread of true tip positions over the run
}

func runVariant(t *testing.T, v Variant, magnitude float64) variantOutcome {
	t.Helper()
	cfg := sim.Config{
		Seed:   700 + int64(v),
		Script: console.StandardScript(6),
		Traj:   trajectory.Standard()[0],
	}
	vc := VariantConfig{Variant: v, StartAt: 4.0, Magnitude: magnitude, Seed: int64(v)}
	if _, err := vc.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	rig, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out variantOutcome
	var first mathx.Vec3
	haveFirst := false
	rig.Observe(func(si sim.StepInfo) {
		if si.Ctrl.State == statemachine.PedalDown {
			if d := si.TipTrue.DistanceTo(si.Ctrl.TipDesired); d > out.maxDev {
				out.maxDev = d
			}
			if rig.PLC().BrakesEngaged() {
				out.brakedInDown++
			}
			if !haveFirst {
				first = si.TipTrue
				haveFirst = true
			}
		}
		if haveFirst {
			if d := si.TipTrue.DistanceTo(first); d > out.tipRange {
				out.tipRange = d
			}
		}
	})
	if _, err := rig.Run(0); err != nil {
		t.Fatal(err)
	}
	out.finalState = rig.Controller().State()
	out.plcEStop = rig.PLC().EStopped()
	out.ikFails = rig.Controller().IKFails()
	out.safetyTrips = rig.Controller().SafetyTrips()
	return out
}

func TestVariantPortChangeFreezesRobot(t *testing.T) {
	out := runVariant(t, VariantPortChange, 0)
	// With datagrams diverted the pedal reads released: the robot drops to
	// Pedal Up and stays there (unwanted state).
	if out.finalState != statemachine.PedalUp {
		t.Fatalf("final state = %v, want Pedal Up (console lost)", out.finalState)
	}
}

func TestVariantPacketContentHijacks(t *testing.T) {
	out := runVariant(t, VariantPacketContent, 2e-5)
	// The hijack is silent: the robot keeps operating (no E-STOP, no
	// safety trip) while executing the attacker's motion instead of the
	// surgeon's.
	if out.plcEStop {
		t.Fatal("hijack latched an E-STOP; it should stay silent")
	}
	if out.safetyTrips != 0 {
		t.Fatalf("hijack tripped the safety checks %d times", out.safetyTrips)
	}
	if out.finalState == statemachine.EStop {
		t.Fatalf("final state = %v", out.finalState)
	}
}

func TestVariantMathDriftCausesIKFailures(t *testing.T) {
	out := runVariant(t, VariantMathDrift, -0.9)
	if out.ikFails == 0 {
		t.Fatal("math drift produced no IK failures")
	}
}

func TestVariantPLCStateEngagesBrakesMidOperation(t *testing.T) {
	out := runVariant(t, VariantPLCState, 0)
	if out.brakedInDown == 0 {
		t.Fatal("PLC-state corruption never engaged brakes during Pedal Down")
	}
}

func TestVariantMotorCommandDeviates(t *testing.T) {
	out := runVariant(t, VariantMotorCommand, 16000)
	if out.maxDev < 0.0005 {
		t.Fatalf("motor-command corruption barely moved the arm: %v m", out.maxDev)
	}
}

func TestVariantEncoderFeedbackDisturbs(t *testing.T) {
	out := runVariant(t, VariantEncoderFeedback, 4000)
	// Phantom encoder error makes the PID chase a ghost: either visible
	// deviation or a safety trip.
	if out.maxDev < 0.0005 && out.safetyTrips == 0 && !out.plcEStop {
		t.Fatalf("encoder corruption had no observable effect: %+v", out)
	}
}

func TestVariantWatchdogSpoofDefeatsPLCPath(t *testing.T) {
	// With the watchdog and state nibble forged, the software's halt never
	// reaches the PLC: the brakes stay released and the corrupted torque
	// drives the arm far beyond what any halting path would allow.
	out := runVariant(t, VariantWatchdogSpoof, 24000)
	if out.plcEStop {
		t.Fatal("PLC latched despite the spoofed watchdog")
	}
	// With the halt path defeated, the unopposed torque drags the arm far
	// across the workspace (the software's E-STOP cannot engage brakes).
	if out.tipRange < 0.005 {
		t.Fatalf("spoofed attack moved the arm only %.3f mm overall", out.tipRange*1e3)
	}
}

func TestVariantStringsAndList(t *testing.T) {
	if len(AllVariants()) != 7 {
		t.Fatalf("AllVariants = %d", len(AllVariants()))
	}
	for _, v := range AllVariants() {
		if v.String() == "" {
			t.Fatalf("variant %d has empty name", v)
		}
	}
	if Variant(99).String() == "" {
		t.Fatal("unknown variant has empty name")
	}
}

func TestVariantApplyUnknown(t *testing.T) {
	cfg := sim.Config{}
	if _, err := (VariantConfig{Variant: Variant(99)}).Apply(&cfg); err == nil {
		t.Fatal("unknown variant accepted")
	}
}
