package sim_test

import (
	"testing"

	"ravenguard/internal/console"
	"ravenguard/internal/control"
	"ravenguard/internal/core"
	"ravenguard/internal/fault"
	"ravenguard/internal/inject"
	"ravenguard/internal/malware"
	"ravenguard/internal/sim"
	"ravenguard/internal/trajectory"
)

// trace records every StepInfo a rig produces. StepInfo is a comparable
// value type, so bit-identity of two runs reduces to == on their traces.
func trace(rig *sim.Rig) *[]sim.StepInfo {
	tr := &[]sim.StepInfo{}
	rig.Observe(func(si sim.StepInfo) { *tr = append(*tr, si) })
	return tr
}

// guardedConfig builds a fresh config with its own guard instance (chain
// wrappers hold per-run state and must never be shared between rigs).
func guardedConfig(t *testing.T, seed int64) sim.Config {
	t.Helper()
	guard, err := core.NewGuard(core.Config{Thresholds: core.DefaultThresholds()})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Seed:   seed,
		Script: console.StandardScript(4),
		Traj:   trajectory.Standard()[0],
		Guards: []sim.Hook{guard},
	}
}

func mustRig(t *testing.T, cfg sim.Config) *sim.Rig {
	t.Helper()
	rig, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

func mustRun(t *testing.T, rig *sim.Rig, maxSteps int) int {
	t.Helper()
	n, err := rig.Run(maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// compareTail asserts the forked run's trace equals the straight run's
// trace from the fork step onward, element for element.
func compareTail(t *testing.T, straight []sim.StepInfo, forkStep int, forked []sim.StepInfo) {
	t.Helper()
	tail := straight[forkStep:]
	if len(forked) != len(tail) {
		t.Fatalf("forked run produced %d steps after step %d, straight run %d",
			len(forked), forkStep, len(tail))
	}
	for i := range tail {
		if forked[i] != tail[i] {
			t.Fatalf("fork at step %d diverged at step %d (t=%.3f s)",
				forkStep, forkStep+i, tail[i].T)
		}
	}
}

func TestForkMatchesStraightRunAtAnyPoint(t *testing.T) {
	// Reference: one uninterrupted guarded session.
	straightRig := mustRig(t, guardedConfig(t, 71))
	straight := trace(straightRig)
	total := mustRun(t, straightRig, 0)

	// Fork points across every session phase: first step, homing,
	// early teleoperation, late teleoperation.
	for _, forkStep := range []int{1, total / 5, total / 2, 4 * total / 5} {
		prefix := mustRig(t, guardedConfig(t, 71))
		mustRun(t, prefix, forkStep)
		snap, err := prefix.Snapshot()
		if err != nil {
			t.Fatalf("fork at %d: snapshot: %v", forkStep, err)
		}

		fork := mustRig(t, guardedConfig(t, 71))
		if err := fork.Restore(snap); err != nil {
			t.Fatalf("fork at %d: restore: %v", forkStep, err)
		}
		forked := trace(fork)
		mustRun(t, fork, 0)
		compareTail(t, *straight, forkStep, *forked)
	}
}

func TestSameRigRewindsBitIdentically(t *testing.T) {
	rig := mustRig(t, guardedConfig(t, 72))
	tr := trace(rig)
	forkStep := mustRun(t, rig, 2600)
	snap, err := rig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, rig, 0)
	first := append([]sim.StepInfo(nil), (*tr)[forkStep:]...)

	// Rewind the same rig and replay.
	if err := rig.Restore(snap); err != nil {
		t.Fatal(err)
	}
	*tr = (*tr)[:0]
	mustRun(t, rig, 0)
	compareTail(t, append(make([]sim.StepInfo, forkStep), first...), forkStep, *tr)
}

// faultedConfig applies a fault plan with a probabilistic encoder-dropout
// window (mid-teleop) and a packet-loss burst after it, on top of a guard.
func faultedConfig(t *testing.T, seed int64) (sim.Config, *fault.Injector) {
	t.Helper()
	cfg := guardedConfig(t, seed)
	plan := fault.Plan{Seed: 7, Events: []fault.Event{
		{At: 3.2, Duration: 0.4, Kind: fault.KindEncoderDropout, Params: fault.Params{Rate: 0.5}},
		{At: 4.1, Duration: 0.3, Kind: fault.KindPacketLoss},
	}}
	inj, err := plan.Apply(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, inj
}

func TestForkMidFaultGapMatchesStraightRun(t *testing.T) {
	// Straight reference run under the fault plan.
	cfgA, injA := faultedConfig(t, 73)
	straightRig := mustRig(t, cfgA)
	straight := trace(straightRig)
	mustRun(t, straightRig, 0)

	// Fork inside the dropout window, right after the fifth dropped
	// feedback frame — the rig is mid-gap: the controller is holding a
	// stale frame, the guard has pending resync state, and the fault
	// injector's rng is mid-stream.
	forkStep := -1
	drops := 0
	for i, si := range *straight {
		if si.FeedbackDropped {
			if drops++; drops == 5 {
				forkStep = i + 1
				break
			}
		}
	}
	if forkStep < 0 {
		t.Fatal("dropout window never dropped 5 frames")
	}

	cfgB, _ := faultedConfig(t, 73)
	prefix := mustRig(t, cfgB)
	mustRun(t, prefix, forkStep)
	if got := prefix.FaultCounters().FeedbackDrops; got != 5 {
		t.Fatalf("prefix rig FeedbackDrops = %d at fork, want 5", got)
	}
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cfgC, injC := faultedConfig(t, 73)
	fork := mustRig(t, cfgC)
	if err := fork.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// The drop counters and the guard's resync bookkeeping must carry
	// across the restore.
	if got := fork.FaultCounters().FeedbackDrops; got != 5 {
		t.Fatalf("restored rig FeedbackDrops = %d, want 5", got)
	}
	guardOf := func(cfg sim.Config) *core.Guard { return cfg.Guards[0].(*core.Guard) }
	if got := guardOf(cfgC).FeedbackGaps(); got != guardOf(cfgB).FeedbackGaps() {
		t.Fatalf("restored guard FeedbackGaps = %d, prefix guard %d",
			got, guardOf(cfgB).FeedbackGaps())
	}
	forked := trace(fork)
	mustRun(t, fork, 0)
	compareTail(t, *straight, forkStep, *forked)

	// Outcome counters converge too: drops, injected fault counts, guard
	// resync totals.
	if a, c := straightRig.FaultCounters(), fork.FaultCounters(); a != c {
		t.Fatalf("final fault counters diverged: straight %+v fork %+v", a, c)
	}
	for _, k := range []fault.Kind{fault.KindEncoderDropout, fault.KindPacketLoss} {
		if a, c := injA.Applied(k), injC.Applied(k); a != c {
			t.Fatalf("fault kind %v: straight injected %d, fork %d", k, a, c)
		}
	}
	if a, c := guardOf(cfgA).FeedbackGaps(), guardOf(cfgC).FeedbackGaps(); a != c {
		t.Fatalf("guard FeedbackGaps: straight %d, fork %d", a, c)
	}
}

func TestDormantAttackSnapshotRestoresIntoCleanRig(t *testing.T) {
	// A snapshot taken from an attacked rig during the attack's dormant
	// prefix must restore into a rig WITHOUT the attack (the snapshot is a
	// superset: extra component states are ignored), and the continuation
	// must match a clean straight run — the foundation of the campaign
	// runners' shared-prefix forking.
	cleanRig := mustRig(t, guardedConfig(t, 74))
	clean := trace(cleanRig)
	total := mustRun(t, cleanRig, 0)
	forkStep := total / 2

	attacked := guardedConfig(t, 74)
	att, err := inject.NewScenarioB(inject.ScenarioBParams{
		Value: 9000, Channel: 0, StartDelayTicks: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	attacked.Preload = append(attacked.Preload, att)
	prefix := mustRig(t, attacked)
	mustRun(t, prefix, forkStep)
	snap, err := prefix.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Named["malicious-injector#0"]; !ok {
		t.Fatal("snapshot did not capture the preloaded injector")
	}

	fork := mustRig(t, guardedConfig(t, 74))
	if err := fork.Restore(snap); err != nil {
		t.Fatalf("subset restore: %v", err)
	}
	forked := trace(fork)
	mustRun(t, fork, 0)
	compareTail(t, *clean, forkStep, *forked)
}

func TestRestoreMissingComponentStateFails(t *testing.T) {
	// The reverse direction must fail loudly: a clean snapshot cannot
	// populate a rig that has MORE stateful components than were captured.
	plain := mustRig(t, sim.Config{Seed: 75, Script: console.StandardScript(3)})
	mustRun(t, plain, 500)
	snap, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	guarded := mustRig(t, guardedConfig(t, 75))
	if err := guarded.Restore(snap); err == nil {
		t.Fatal("restore into a rig with extra components succeeded; want error")
	}
}

func TestRestoreExceptResumesCleanSnapshotIntoAttackedRig(t *testing.T) {
	// A clean rig's snapshot, taken before the console's first pedal-down
	// datagram, must resume an attacked rig whose dormant attack keeps its
	// own state: the continuation matches the attacked rig's straight run.
	// Plain Restore refuses the same snapshot, which has no attack state.
	attacked := func() (sim.Config, *malware.Injector) {
		cfg := guardedConfig(t, 76)
		att, err := inject.NewScenarioB(inject.ScenarioBParams{
			Value: 20000, Channel: 1, StartDelayTicks: 300, ActivationTicks: 64, RandomByte: true, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Preload = append(cfg.Preload, att)
		return cfg, att
	}
	cfg, att := attacked()
	straightRig := mustRig(t, cfg)
	straight := trace(straightRig)
	mustRun(t, straightRig, 0)
	if att.Injected() == 0 {
		t.Fatal("the straight run's attack never fired")
	}

	forkStep := console.StandardScript(4).HomingTicks(control.Period)
	clean := mustRig(t, guardedConfig(t, 76))
	mustRun(t, clean, forkStep)
	snap, err := clean.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cfg, att = attacked()
	if err := mustRig(t, cfg).Restore(snap); err == nil {
		t.Fatal("restore of a clean snapshot into an attacked rig succeeded; want error")
	}
	fork := mustRig(t, cfg)
	if err := fork.RestoreExcept(snap, att); err != nil {
		t.Fatalf("restore except the attack: %v", err)
	}
	forked := trace(fork)
	mustRun(t, fork, 0)
	compareTail(t, *straight, forkStep, *forked)
}
