package sim_test

import (
	"testing"

	"ravenguard/internal/console"
	"ravenguard/internal/sim"
	"ravenguard/internal/usb"
)

// stalledConfig is a guarded rig whose board firmware hangs for 20
// control cycles mid-teleop: the command frames the guard passes are
// rejected and counted, never fatal.
func stalledConfig(t *testing.T, seed int64) sim.Config {
	t.Helper()
	cfg := guardedConfig(t, seed)
	cfg.OnBoard = func(b *usb.Board) {
		tick := 0
		b.SetReadFault(func(frame []byte) []byte {
			tick++
			b.SetStalled(tick > 3000 && tick <= 3020)
			return frame
		})
	}
	return cfg
}

func TestLockstepMatchesSoloRuns(t *testing.T) {
	// Heterogeneous cohort: different seeds, two guarded (one through a
	// board stall), one faulted, and scripts of different lengths so rigs
	// vacate lanes at different times.
	build := func() ([]*sim.Rig, []*[]sim.StepInfo) {
		cfgs := []sim.Config{
			guardedConfig(t, 81),
			{Seed: 82, Script: console.StandardScript(3)},
			{Seed: 83, Script: console.StandardScript(5)},
		}
		fcfg, _ := faultedConfig(t, 84)
		cfgs = append(cfgs, fcfg, stalledConfig(t, 85))
		rigs := make([]*sim.Rig, len(cfgs))
		traces := make([]*[]sim.StepInfo, len(cfgs))
		for i, cfg := range cfgs {
			rigs[i] = mustRig(t, cfg)
			traces[i] = trace(rigs[i])
		}
		return rigs, traces
	}

	soloRigs, soloTraces := build()
	for _, r := range soloRigs {
		mustRun(t, r, 0)
	}
	if n := soloRigs[4].FaultCounters().BoardStallDrops; n != 20 {
		t.Fatalf("weak fixture: stalled rig dropped %d frames, want 20", n)
	}

	lockRigs, lockTraces := build()
	if err := sim.RunLockstep(lockRigs); err != nil {
		t.Fatal(err)
	}

	for i := range soloTraces {
		solo, lock := *soloTraces[i], *lockTraces[i]
		if len(solo) != len(lock) {
			t.Fatalf("rig %d: solo ran %d steps, lockstep %d", i, len(solo), len(lock))
		}
		for j := range solo {
			if solo[j] != lock[j] {
				t.Fatalf("rig %d diverged at step %d (t=%.3f s)", i, j, solo[j].T)
			}
		}
	}
}
