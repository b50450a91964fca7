// Allocation-regression tests: the per-tick hot paths — packet codec,
// write-interposition chain, guard estimate, fused dynamics step — must
// stay allocation-free, so campaign throughput cannot silently rot on
// per-frame garbage.
package ravenguard

import (
	"testing"

	"ravenguard/internal/core"
	"ravenguard/internal/dynamics"
	"ravenguard/internal/experiment"
	"ravenguard/internal/fleet"
	"ravenguard/internal/interpose"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/malware"
	"ravenguard/internal/usb"
)

// assertZeroAllocs runs f under testing.AllocsPerRun and fails on any
// per-call allocation.
func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s allocates %.1f times per call, want 0", name, avg)
	}
}

func TestHotPathsDoNotAllocate(t *testing.T) {
	cmd := usb.Command{StateNibble: 0x0F, Watchdog: true, Seq: 3, DAC: [8]int16{1, -2, 3}}
	frame := cmd.Encode()
	assertZeroAllocs(t, "usb.Command.Encode", func() {
		frame = cmd.Encode()
	})
	assertZeroAllocs(t, "usb.DecodeCommand", func() {
		if _, err := usb.DecodeCommand(frame[:]); err != nil {
			t.Fatal(err)
		}
	})

	chain := interpose.NewChain(func([]byte) error { return nil })
	chain.Preload(malware.NewInjector(malware.InjectorConfig{Mode: malware.ModeDACOffset, Value: 100}))
	buf := make([]byte, len(frame))
	copy(buf, frame[:])
	assertZeroAllocs(t, "interpose.Chain.Write", func() {
		if err := chain.Write(buf); err != nil {
			t.Fatal(err)
		}
	})

	guard, err := core.NewGuard(core.Config{Thresholds: core.DefaultThresholds()})
	if err != nil {
		t.Fatal(err)
	}
	var fb usb.Feedback
	mp := kinematics.DefaultTransmission().ToMotor(kinematics.DefaultLimits().Center())
	for i := 0; i < kinematics.NumJoints; i++ {
		fb.Encoder[i] = int32(mp[i] * 4000 / (2 * 3.14159265))
	}
	guard.OnFeedback(fb, 0)
	copy(buf, frame[:])
	assertZeroAllocs(t, "core.Guard.OnWrite", func() {
		guard.OnWrite(buf)
	})

	stepper, err := dynamics.NewStepper(dynamics.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var st dynamics.State
	st.SetJointPos(kinematics.DefaultLimits().Center(), kinematics.DefaultTransmission())
	stepper.SetTorque([3]float64{0.01, 0.01, 0.005})
	assertZeroAllocs(t, "dynamics.Stepper.StepRK4", func() {
		stepper.StepRK4(&st.X, 1e-3)
	})
	assertZeroAllocs(t, "dynamics.Stepper.StepEuler", func() {
		stepper.StepEuler(&st.X, 1e-3)
	})
}

// TestCampaignAllocCeilings pins whole-campaign allocation budgets at the
// benchmark sizings, so campaign-level garbage (error wrapping on rejected
// frames, queue regrowth, unshared session heads) cannot silently return.
// The ceilings sit ~15% above the measured counts: Table I ~530 (was
// 14 408 before the IK-failure errors became sentinels), fault campaign
// ~7 000 (was 62 759 before the transport FIFOs reused their backing
// arrays), mitigation sweep ~6 880 (above the 5 370 straight baseline —
// the snapshot/fork engine allocates more but runs 1.3x faster).
func TestCampaignAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("whole campaigns; skipped with -short")
	}
	for _, c := range []struct {
		name  string
		limit float64
		run   func() error
	}{
		{"Table1", 700, func() error {
			_, err := experiment.RunTable1(1)
			return err
		}},
		{"FaultCampaign", 8500, func() error {
			_, err := experiment.RunFaultCampaign(experiment.FaultCampaignConfig{BaseSeed: 1, Seeds: 1, Teleop: 4})
			return err
		}},
		{"MitigationSweep", 8000, func() error {
			_, err := experiment.RunMitigationSweep([]int16{12000, 16000, 20000},
				experiment.MitigationConfig{Attacks: 12, BaseSeed: 1})
			return err
		}},
	} {
		got := testing.AllocsPerRun(1, func() {
			experiment.ResetReferenceCache()
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.limit {
			t.Errorf("%s allocates %.0f times per campaign, ceiling %.0f", c.name, got, c.limit)
		}
	}
}

// TestFullSimStepDoesNotAllocate pins the end-to-end property the
// component assertions above build toward: one whole teleoperation step
// (console → transport → controller → chain → board → plant → feedback)
// runs without touching the heap.
func TestFullSimStepDoesNotAllocate(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 1, Script: StandardScript(1e9)})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up past state-machine transitions and lazy first-use setup.
	for i := 0; i < 5000; i++ {
		if _, err := sys.Step(); err != nil {
			t.Fatal(err)
		}
	}
	assertZeroAllocs(t, "System.Step", func() {
		if _, err := sys.Step(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFleetTickDoesNotAllocate pins the multi-tenant extension of the same
// property: a fleet worker's steady-state tick — control halves for every
// resident session (in-line guard checks included), lane reconcile, one
// fused batch integration, digest folds, latency record — runs without
// touching the heap. (Admission and retirement may allocate; ticks in between must
// not.)
func TestFleetTickDoesNotAllocate(t *testing.T) {
	w, err := fleet.NewWorker(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Endless sessions (no retirement inside the measured window), mixed:
	// clean unguarded, clean guarded, attacked + mitigating guard, and an
	// attacked hold-safe guard (frames rewritten in place every teleop
	// tick of the cooldown).
	specs := []fleet.Spec{
		{Seed: 1, TeleopSeconds: 1e9},
		{Seed: 2, TeleopSeconds: 1e9, Guard: "monitor"},
		{Seed: 3, TeleopSeconds: 1e9, Guard: "mitigate",
			Attack: "B", AttackValue: 20000, AttackDelay: 150, AttackDuration: 64},
		{Seed: 4, TeleopSeconds: 1e9, Guard: "holdsafe",
			Attack: "B", AttackValue: 20000, AttackDelay: 150, AttackDuration: 64},
	}
	for _, sp := range specs {
		s, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Admit(s); err != nil {
			t.Fatal(err)
		}
	}
	// Warm past state-machine transitions, the attack window, the
	// mitigation E-STOP (which parks a lane), and lazy first-use setup.
	for i := 0; i < 5000; i++ {
		if err := w.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	assertZeroAllocs(t, "fleet.Worker.Tick", func() {
		if err := w.Tick(); err != nil {
			t.Fatal(err)
		}
	})
}
