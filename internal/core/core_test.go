package core

import (
	"strings"
	"testing"

	"ravenguard/internal/console"
	"ravenguard/internal/inject"
	"ravenguard/internal/interpose"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/mathx"
	"ravenguard/internal/motor"
	"ravenguard/internal/sim"
	"ravenguard/internal/statemachine"
	"ravenguard/internal/trajectory"
	"ravenguard/internal/usb"
)

func TestNewGuardValidation(t *testing.T) {
	if _, err := NewGuard(Config{}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if _, err := NewGuard(Config{Integrator: "simpson"}); err == nil {
		t.Fatal("unknown integrator accepted")
	}
	if _, err := NewGuard(Config{Mode: ModeMitigate}); err == nil {
		t.Fatal("mitigation without thresholds accepted")
	}
	bad := DefaultThresholds()
	bad.MotorVel[1] = -1
	if _, err := NewGuard(Config{Thresholds: bad}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	badBank := motor.DefaultBank()
	badBank[0].EncoderCPR = 0
	if _, err := NewGuard(Config{Bank: badBank}); err == nil {
		t.Fatal("bad bank accepted")
	}
}

func TestGuardIgnoresNonCommandFrames(t *testing.T) {
	g, err := NewGuard(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v := g.OnWrite([]byte{1, 2, 3}); v != interpose.Pass {
		t.Fatal("non-command frame not passed through")
	}
}

func TestGuardPassesWithoutFeedbackSync(t *testing.T) {
	g, err := NewGuard(Config{Thresholds: DefaultThresholds()})
	if err != nil {
		t.Fatal(err)
	}
	cmd := usb.Command{StateNibble: statemachine.PedalDown.Nibble(), DAC: [usb.NumChannels]int16{32767}}
	frame := cmd.Encode()
	if v := g.OnWrite(frame[:]); v != interpose.Pass {
		t.Fatal("unsynced guard must pass")
	}
	if g.Alarms() != 0 {
		t.Fatal("unsynced guard alarmed")
	}
}

func TestGuardFreezesModelWhenBraked(t *testing.T) {
	g, err := NewGuard(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Sync at a pose, then drive the model with pedal-down frames to
	// build velocity, then send a Pedal-Up frame.
	g.OnFeedback(feedbackAt(t, kinematics.DefaultLimits().Center()), 0)
	cmd := usb.Command{StateNibble: statemachine.PedalDown.Nibble(), DAC: [usb.NumChannels]int16{20000}}
	frame := cmd.Encode()
	for i := 0; i < 20; i++ {
		g.OnWrite(frame[:])
	}
	mp, _ := g.ModelState()
	_ = mp
	up := usb.Command{StateNibble: statemachine.PedalUp.Nibble()}
	upFrame := up.Encode()
	g.OnWrite(upFrame[:])
	mv, jv := g.state.MotorVel(), g.state.JointVel()
	for i := 0; i < kinematics.NumJoints; i++ {
		if mv[i] != 0 || jv[i] != 0 {
			t.Fatalf("braked model kept velocity: %v %v", mv, jv)
		}
	}
}

// feedbackAt builds an encoder feedback frame for a joint pose.
func feedbackAt(t *testing.T, jp kinematics.JointPos) usb.Feedback {
	t.Helper()
	bank := motor.DefaultBank()
	mp := kinematics.DefaultTransmission().ToMotor(jp)
	var fb usb.Feedback
	for i := 0; i < kinematics.NumJoints; i++ {
		fb.Encoder[i] = bank[i].EncoderCounts(mp[i])
	}
	return fb
}

func TestGuardNoAlarmsFaultFree(t *testing.T) {
	guard, err := NewGuard(Config{Thresholds: DefaultThresholds()})
	if err != nil {
		t.Fatal(err)
	}
	rig, err := sim.New(sim.Config{
		Seed:   91,
		Script: console.StandardScript(6),
		Traj:   trajectory.Standard()[0],
		Guards: []sim.Hook{guard},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Run(0); err != nil {
		t.Fatal(err)
	}
	if guard.Alarms() != 0 {
		t.Fatalf("fault-free run raised %d alarms", guard.Alarms())
	}
}

func TestGuardDetectsScenarioB(t *testing.T) {
	guard, err := NewGuard(Config{Thresholds: DefaultThresholds()})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := inject.NewScenarioB(inject.ScenarioBParams{
		Value: 16000, Channel: 0, StartDelayTicks: 1000, ActivationTicks: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig, err := sim.New(sim.Config{
		Seed:    92,
		Script:  console.StandardScript(5),
		Traj:    trajectory.Standard()[0],
		Guards:  []sim.Hook{guard},
		Preload: []interpose.Wrapper{inj},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Run(0); err != nil {
		t.Fatal(err)
	}
	if inj.Injected() == 0 {
		t.Fatal("attack never activated")
	}
	if guard.Alarms() == 0 {
		t.Fatal("guard missed a 16000-count 64 ms torque injection")
	}
	// Monitor mode must not have disturbed the robot.
	if rig.PLC().EStopped() {
		t.Fatal("monitor-mode guard latched E-STOP")
	}
}

func TestGuardDetectsScenarioA(t *testing.T) {
	guard, err := NewGuard(Config{Thresholds: DefaultThresholds()})
	if err != nil {
		t.Fatal(err)
	}
	att, err := inject.NewScenarioA(inject.ScenarioAParams{
		Magnitude: 2e-4, StartAfterTicks: 1000, ActivationTicks: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig, err := sim.New(sim.Config{
		Seed:    93,
		Script:  console.StandardScript(5),
		Traj:    trajectory.Standard()[1],
		Guards:  []sim.Hook{guard},
		OnInput: att.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Run(0); err != nil {
		t.Fatal(err)
	}
	if guard.Alarms() == 0 {
		t.Fatal("guard missed a 0.2 mm/cycle input injection")
	}
}

func TestGuardMitigationReducesImpact(t *testing.T) {
	run := func(mode Mode) (maxDev float64, mitigated int) {
		guard, err := NewGuard(Config{Thresholds: DefaultThresholds(), Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		inj, err := inject.NewScenarioB(inject.ScenarioBParams{
			Value: 16000, Channel: 0, StartDelayTicks: 1000, ActivationTicks: 128,
		})
		if err != nil {
			t.Fatal(err)
		}
		rig, err := sim.New(sim.Config{
			Seed:    94,
			Script:  console.StandardScript(5),
			Traj:    trajectory.Standard()[0],
			Guards:  []sim.Hook{guard},
			Preload: []interpose.Wrapper{inj},
		})
		if err != nil {
			t.Fatal(err)
		}
		halted := false
		rig.Observe(func(si sim.StepInfo) {
			if halted {
				return
			}
			if si.Ctrl.State == statemachine.PedalDown {
				if d := si.TipTrue.DistanceTo(si.Ctrl.TipDesired); d > maxDev {
					maxDev = d
				}
			}
			if si.PLCEStop {
				halted = true
			}
		})
		if _, err := rig.Run(0); err != nil {
			t.Fatal(err)
		}
		return maxDev, guard.Mitigated()
	}
	devMon, _ := run(ModeMonitor)
	devMit, mitigated := run(ModeMitigate)
	if mitigated == 0 {
		t.Fatal("mitigation mode never neutralised a frame")
	}
	if devMit >= devMon {
		t.Fatalf("mitigation did not reduce impact: %.3f mm vs %.3f mm", devMit*1e3, devMon*1e3)
	}
}

func TestGuardMitigationLatchesEStopViaRig(t *testing.T) {
	guard, err := NewGuard(Config{Thresholds: DefaultThresholds(), Mode: ModeMitigate})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := inject.NewScenarioB(inject.ScenarioBParams{
		Value: 20000, Channel: 0, StartDelayTicks: 1000, ActivationTicks: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig, err := sim.New(sim.Config{
		Seed:    95,
		Script:  console.StandardScript(5),
		Traj:    trajectory.Standard()[0],
		Guards:  []sim.Hook{guard},
		Preload: []interpose.Wrapper{inj},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Run(0); err != nil {
		t.Fatal(err)
	}
	if guard.Mitigated() == 0 {
		t.Fatal("no mitigation occurred")
	}
	if !rig.PLC().EStopped() {
		t.Fatal("mitigation did not latch the PLC E-STOP")
	}
	if !strings.Contains(rig.PLC().EStopCause(), "dynamic-model guard") {
		t.Fatalf("E-STOP cause = %q", rig.PLC().EStopCause())
	}
}

func TestGuardModelTracksPlant(t *testing.T) {
	guard, err := NewGuard(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rig, err := sim.New(sim.Config{
		Seed:   96,
		Script: console.StandardScript(6),
		Traj:   trajectory.Standard()[1],
		Guards: []sim.Hook{guard},
	})
	if err != nil {
		t.Fatal(err)
	}
	worstJ := 0.0
	rig.Observe(func(si sim.StepInfo) {
		if si.T < 3.5 {
			return
		}
		_, jp := guard.ModelState()
		for i := 0; i < kinematics.NumJoints; i++ {
			if d := mathx.Clamp(jp[i]-si.JposTrue[i], -1e9, 1e9); d < 0 {
				d = -d
				if d > worstJ {
					worstJ = d
				}
			} else if d > worstJ {
				worstJ = d
			}
		}
	})
	if _, err := rig.Run(0); err != nil {
		t.Fatal(err)
	}
	// Worst joint tracking error under 0.01 rad (~0.6 deg): the model is
	// usable for one-step-ahead estimation.
	if worstJ > 0.01 {
		t.Fatalf("worst model joint error %v rad", worstJ)
	}
	if guard.StepTime().N == 0 {
		t.Fatal("no step-time samples recorded")
	}
}

func TestGuardRK4AndEulerBothTrack(t *testing.T) {
	for _, scheme := range []string{"euler", "rk4"} {
		guard, err := NewGuard(Config{Integrator: scheme})
		if err != nil {
			t.Fatal(err)
		}
		rig, err := sim.New(sim.Config{
			Seed:   97,
			Script: console.StandardScript(3),
			Traj:   trajectory.Standard()[0],
			Guards: []sim.Hook{guard},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rig.Run(0); err != nil {
			t.Fatal(err)
		}
		_, jp := guard.ModelState()
		for i := 0; i < kinematics.NumJoints; i++ {
			d := jp[i] - rig.Plant().JointPos()[i]
			if d < -0.02 || d > 0.02 {
				t.Fatalf("%s: joint %d model error %v rad at session end", scheme, i, d)
			}
		}
	}
}

func TestLearnSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("learning is slow")
	}
	th, err := Learn(LearnConfig{Runs: 4, TeleopSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Validate(); err != nil {
		t.Fatalf("learned thresholds invalid: %v", err)
	}
	// Learned thresholds must be in the same decade as the baked-in ones.
	def := DefaultThresholds()
	for i := 0; i < kinematics.NumJoints; i++ {
		if th.MotorVel[i] > def.MotorVel[i]*10 || th.MotorVel[i] < def.MotorVel[i]/10 {
			t.Fatalf("joint %d motor-vel threshold %v far from default %v", i, th.MotorVel[i], def.MotorVel[i])
		}
	}
}

func TestDefaultThresholdsValid(t *testing.T) {
	if err := DefaultThresholds().Validate(); err != nil {
		t.Fatal(err)
	}
}
