package fleet

import (
	"testing"

	"ravenguard/internal/console"
	"ravenguard/internal/core"
	"ravenguard/internal/inject"
	"ravenguard/internal/interpose"
	"ravenguard/internal/sim"
	"ravenguard/internal/stats"
	"ravenguard/internal/trajectory"
	"ravenguard/internal/usb"
)

// gapSession assembles a guarded, attacked session whose feedback stream
// deterministically drops frames for gapLen cycles starting after cycle
// gapStart: the guard desynchronises over the gap and must resync on the
// next good frame. With stallLen > 0 the board firmware also hangs for
// stallLen cycles after cycle stallStart, rejecting the command frames the
// guard passed. The main spec-driven equivalence fixture cannot express
// board-level faults, so this builds the rig directly (same package). The
// returned trace records every step's full StepInfo.
func gapSession(t *testing.T, seed int64, teleop float64, mode core.Mode, gapStart, gapLen, stallStart, stallLen int) (*Session, *[]sim.StepInfo) {
	t.Helper()
	g, err := core.NewGuard(core.Config{Thresholds: core.DefaultThresholds(), Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := inject.NewScenarioB(inject.ScenarioBParams{
		Value:           20000,
		Channel:         0,
		StartDelayTicks: 150,
		ActivationTicks: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	tick := 0
	cfg := sim.Config{
		Seed:    seed,
		Script:  console.StandardScript(teleop),
		Traj:    trajectory.Standard()[0],
		Guards:  []sim.Hook{g},
		Preload: []interpose.Wrapper{inj},
		OnBoard: func(b *usb.Board) {
			b.SetReadFault(func(frame []byte) []byte {
				tick++
				b.SetStalled(stallLen > 0 && tick > stallStart && tick <= stallStart+stallLen)
				if tick > gapStart && tick <= gapStart+gapLen {
					return frame[:2] // undecodable length: feedback lost
				}
				return frame
			})
		},
	}
	rig, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := &[]sim.StepInfo{}
	rig.Observe(func(si sim.StepInfo) { *tr = append(*tr, si) })
	return &Session{Spec: Spec{Seed: seed}, rig: rig, guard: g, injected: inj.Injected, dig: NewDigest()}, tr
}

// TestGuardBatchMatchesScalarAcrossEdges pins guarded sessions run on a
// fleet worker against the same sessions stepped alone with Rig.Step, at
// the edges of the lockstep engine: feedback gaps with model resync,
// hold-safe engagement (frame rewrites under cooldown), mid-run admission,
// post-retirement lane compaction, and a board stall that rejects the
// frames the guard passed (dropped and counted, never fatal to the tick).
// Both drivers run the guard through the same in-line OnWrite, so every
// step's StepInfo, the digests, fault counters, final plant state and the
// guard's full checkpoint state must match bit-for-bit; only the
// wall-clock StepTime sums may differ, so StepTime is compared by sample
// count.
func TestGuardBatchMatchesScalarAcrossEdges(t *testing.T) {
	type build struct {
		seed    int64
		teleop  float64
		mode    core.Mode
		gapAt   int
		gapLen  int
		startAt int // worker tick of admission
		stallAt int
		stall   int // board-stall cycles (0 = none)
	}
	// Varied lengths force retirement (and lane compaction under the
	// surviving sessions); startAt forces mid-run admission; the gap
	// windows land inside pedal-down teleop, around and inside the attack
	// activation, so resync and mitigation interleave.
	builds := []build{
		{seed: 41, teleop: 0.7, mode: core.ModeHoldSafe, gapAt: 400, gapLen: 8, startAt: 0},
		{seed: 42, teleop: 0.4, mode: core.ModeMitigate, gapAt: 330, gapLen: 3, startAt: 0},
		{seed: 43, teleop: 0.55, mode: core.ModeHoldSafe, gapAt: 500, gapLen: 25, startAt: 300},
		{seed: 44, teleop: 0.45, mode: core.ModeMonitor, gapAt: 360, gapLen: 1, startAt: 700},
		{seed: 45, teleop: 0.5, mode: core.ModeMonitor, gapAt: 300, gapLen: 2, startAt: 100, stallAt: 1400, stall: 20},
	}

	// Standalone reference: same construction, driven alone.
	want := make([]*Session, len(builds))
	wantTr := make([]*[]sim.StepInfo, len(builds))
	for i, b := range builds {
		s, tr := gapSession(t, b.seed, b.teleop, b.mode, b.gapAt, b.gapLen, b.stallAt, b.stall)
		wantTr[i] = tr
		for !s.rig.Done() {
			si, err := s.rig.Step()
			if err != nil {
				t.Fatal(err)
			}
			s.Note(si)
		}
		want[i] = s
	}
	// The fixture must exercise the machinery it claims to: every session
	// lost feedback, and the guarded-mitigation sessions alarmed and
	// rewrote frames.
	var alarms, mitigated, drops int
	for i, s := range want {
		sum := s.rig.FaultCounters()
		if sum.FeedbackDrops == 0 {
			t.Fatalf("weak fixture: session %d saw no feedback gap", i)
		}
		if (sum.BoardStallDrops > 0) != (builds[i].stall > 0) {
			t.Fatalf("weak fixture: session %d stall drops %d with a %d-cycle stall", i, sum.BoardStallDrops, builds[i].stall)
		}
		drops += sum.FeedbackDrops
		alarms += s.guard.Alarms()
		mitigated += s.guard.Mitigated()
	}
	if alarms == 0 || mitigated == 0 {
		t.Fatalf("weak fixture: alarms=%d mitigated=%d — want both non-zero", alarms, mitigated)
	}

	// Fleet run: one worker, staggered admissions.
	w, err := NewWorker(len(builds), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Session, len(builds))
	gotTr := make([]*[]sim.StepInfo, len(builds))
	for i, b := range builds {
		got[i], gotTr[i] = gapSession(t, b.seed, b.teleop, b.mode, b.gapAt, b.gapLen, b.stallAt, b.stall)
	}
	admitted := 0
	for tick := 0; ; tick++ {
		for i, b := range builds {
			if b.startAt == tick {
				if err := w.Admit(got[i]); err != nil {
					t.Fatal(err)
				}
				admitted++
			}
		}
		if err := w.Tick(); err != nil {
			t.Fatal(err)
		}
		if admitted == len(builds) && w.Resident() == 0 {
			break
		}
		if tick > 100_000 {
			t.Fatal("fleet never drained")
		}
	}

	for i, s := range got {
		g, w := *gotTr[i], *wantTr[i]
		if len(g) != len(w) {
			t.Errorf("session %d: fleet ran %d steps, standalone %d", i, len(g), len(w))
		}
		for j := 0; j < len(g) && j < len(w); j++ {
			if g[j] != w[j] {
				t.Errorf("session %d: StepInfo diverged at step %d (t=%.3f s)", i, j, w[j].T)
				break
			}
		}
		if s.Sum() != want[i].Sum() {
			t.Errorf("session %d (mode %v): fleet digest %016x, standalone %016x", i, builds[i].mode, s.Sum(), want[i].Sum())
		}
		if s.Ticks() != want[i].Ticks() {
			t.Errorf("session %d: fleet ran %d ticks, standalone %d", i, s.Ticks(), want[i].Ticks())
		}
		if s.Injected() != want[i].Injected() {
			t.Errorf("session %d: fleet injected %d, standalone %d", i, s.Injected(), want[i].Injected())
		}
		if s.guard.Alarms() != want[i].guard.Alarms() || s.guard.Mitigated() != want[i].guard.Mitigated() {
			t.Errorf("session %d: fleet alarms=%d mitigated=%d, standalone alarms=%d mitigated=%d",
				i, s.guard.Alarms(), s.guard.Mitigated(), want[i].guard.Alarms(), want[i].guard.Mitigated())
		}
		if s.rig.FaultCounters() != want[i].rig.FaultCounters() {
			t.Errorf("session %d: fleet fault counters %+v, standalone %+v",
				i, s.rig.FaultCounters(), want[i].rig.FaultCounters())
		}
		if s.rig.Plant().CaptureState() != want[i].rig.Plant().CaptureState() {
			t.Errorf("session %d: final plant state diverged", i)
		}
		gs, ws := s.guard.CaptureSnap().(core.State), want[i].guard.CaptureSnap().(core.State)
		if n, wn := gs.StepTime.Summarize().N, ws.StepTime.Summarize().N; n != wn || wn == 0 {
			t.Errorf("session %d: fleet guard took %d StepTime samples, standalone %d", i, n, wn)
		}
		gs.StepTime, ws.StepTime = stats.Running{}, stats.Running{}
		if gs != ws {
			t.Errorf("session %d: fleet guard state diverged from the standalone guard's", i)
		}
	}
}
