package fleet

import (
	"testing"

	"ravenguard/internal/sim"
)

// testSpecs is a mixed fleet: unguarded clean sessions, monitored and
// mitigated attacks of both scenarios, staggered admissions (mid-run
// admission while earlier sessions run), varied lengths (retirement and
// lane compaction while neighbours keep running), and mitigate-mode
// E-STOPs (mid-life parking of braked plants).
func testSpecs() []Spec {
	mixes := []struct{ attack, guard string }{
		{"none", "off"},
		{"A", "monitor"},
		{"B", "mitigate"},
		{"A", "holdsafe"},
		{"B", "holdsafe"},
		{"none", "mitigate"},
		{"B", "monitor"},
		{"A", "mitigate"},
		{"none", "monitor"},
		{"B", "off"},
		{"A", "off"},
		{"B", "mitigate"},
	}
	specs := make([]Spec, len(mixes))
	for i, m := range mixes {
		specs[i] = Spec{
			Seed:            int64(100 + i),
			TeleopSeconds:   0.4 + 0.15*float64(i%3),
			TrajIdx:         i % 2,
			Attack:          m.attack,
			AttackValue:     20000,
			AttackMagnitude: 4e-4,
			AttackDuration:  64,
			AttackDelay:     150,
			Guard:           m.guard,
			StartTick:       260 * i,
		}
	}
	return specs
}

// TestFleetMatchesStandaloneAnyWorkerCount pins the engine's core
// guarantee: every session run inside a packed fleet — through staggered
// admission, lockstep batch stepping, E-STOP parking, and retirement with
// lane compaction — produces byte-identical guard verdicts, tip
// trajectories, and final plant state to the same Spec run alone, at 1 and
// at 8 workers.
func TestFleetMatchesStandaloneAnyWorkerCount(t *testing.T) {
	specs := testSpecs()
	want := make([]*Session, len(specs))
	for i, sp := range specs {
		s, err := RunStandalone(sp)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	// The mix must actually exercise the interesting machinery: alarms,
	// mitigation E-STOPs (which park plants mid-run), and clean sessions.
	var alarms, estops, clean int
	for _, s := range want {
		if g := s.Guard(); g != nil {
			alarms += g.Alarms()
		}
		if s.Rig().PLC().EStopped() {
			estops++
		} else {
			clean++
		}
	}
	if alarms == 0 || estops == 0 || clean == 0 {
		t.Fatalf("weak fixture: alarms=%d estops=%d clean=%d — want all non-zero", alarms, estops, clean)
	}

	for _, workers := range []int{1, 8} {
		eng, err := New(Config{Specs: specs, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		var totalTicks int64
		for i, s := range eng.Sessions() {
			if s == nil {
				t.Fatalf("workers=%d: session %d never admitted", workers, i)
			}
			if s.Sum() != want[i].Sum() {
				t.Errorf("workers=%d: session %d (attack %s, guard %s) digest %016x, standalone %016x",
					workers, i, s.Spec.Attack, s.Spec.Guard, s.Sum(), want[i].Sum())
			}
			if s.Ticks() != want[i].Ticks() {
				t.Errorf("workers=%d: session %d ran %d ticks, standalone %d", workers, i, s.Ticks(), want[i].Ticks())
			}
			if s.Injected() != want[i].Injected() {
				t.Errorf("workers=%d: session %d injected %d, standalone %d", workers, i, s.Injected(), want[i].Injected())
			}
			if g, wg := s.Guard(), want[i].Guard(); g != nil {
				if g.Alarms() != wg.Alarms() || g.Mitigated() != wg.Mitigated() {
					t.Errorf("workers=%d: session %d guard counted alarms=%d mitigated=%d, standalone alarms=%d mitigated=%d",
						workers, i, g.Alarms(), g.Mitigated(), wg.Alarms(), wg.Mitigated())
				}
			}
			// The retired plant's complete state — integrator anchors and
			// rng position included — must equal the standalone plant's.
			if s.Rig().Plant().CaptureState() != want[i].Rig().Plant().CaptureState() {
				t.Errorf("workers=%d: session %d final plant state diverged from standalone", workers, i)
			}
			totalTicks += int64(s.Ticks())
		}
		if rep.SessionTicks != totalTicks {
			t.Errorf("workers=%d: report counts %d session ticks, sessions ran %d", workers, rep.SessionTicks, totalTicks)
		}
		if rep.Alarms != alarms || rep.EStops != estops {
			t.Errorf("workers=%d: report alarms=%d estops=%d, want %d, %d", workers, rep.Alarms, rep.EStops, alarms, estops)
		}
	}
}

// TestReportSLOFields pins the report arithmetic under a deterministic
// clock: every worker tick reads the clock twice, so latencies are exactly
// the tick step and the quantiles land in that bucket.
func TestReportSLOFields(t *testing.T) {
	const stepNs = 50_000 // 50 µs per clock reading
	specs := []Spec{
		{Seed: 7, TeleopSeconds: 0.3},
		{Seed: 8, TeleopSeconds: 0.3, Attack: "B", AttackValue: 20000, AttackDuration: 64, AttackDelay: 150, Guard: "mitigate"},
	}
	eng, err := New(Config{Specs: specs, Workers: 1, Clock: sim.TickClock(stepNs)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 2 || rep.Workers != 1 {
		t.Fatalf("report sessions=%d workers=%d, want 2, 1", rep.Sessions, rep.Workers)
	}
	if rep.WorkerTicks <= 0 || rep.SessionTicks <= 0 {
		t.Fatalf("report ran nothing: worker ticks %d, session ticks %d", rep.WorkerTicks, rep.SessionTicks)
	}
	// Each tick spans exactly one clock step; quantiles report the bucket
	// midpoint of that step.
	wantMs := latMidpointNs(latIndex(stepNs)) / 1e6
	if rep.TickP50Ms != wantMs || rep.TickP99Ms != wantMs {
		t.Errorf("tick p50=%.4f p99=%.4f ms, want %.4f", rep.TickP50Ms, rep.TickP99Ms, wantMs)
	}
	if rep.TickMaxMs != float64(stepNs)/1e6 {
		t.Errorf("tick max %.4f ms, want %.4f", rep.TickMaxMs, float64(stepNs)/1e6)
	}
	if rep.TickBudgetMs != 1.0 {
		t.Errorf("tick budget %.4f ms, want 1.0", rep.TickBudgetMs)
	}
	if rep.TicksOverBudget != 0 {
		t.Errorf("%d ticks over budget under a 50 µs clock, want 0", rep.TicksOverBudget)
	}
	if rep.WallSeconds <= 0 || rep.TicksPerSecond <= 0 || rep.SessionsPerCore <= 0 {
		t.Errorf("throughput fields not populated: wall=%.3f tps=%.1f spc=%.2f",
			rep.WallSeconds, rep.TicksPerSecond, rep.SessionsPerCore)
	}
	if rep.PeakRSSBytes <= 0 {
		t.Errorf("peak RSS %d, want > 0", rep.PeakRSSBytes)
	}
}

// TestSpecErrors pins Build/New validation.
func TestSpecErrors(t *testing.T) {
	if _, err := (Spec{Seed: 1, Attack: "C"}).Build(); err == nil {
		t.Error("unknown attack built")
	}
	if _, err := (Spec{Seed: 1, Guard: "loud"}).Build(); err == nil {
		t.Error("unknown guard mode built")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := New(Config{Specs: []Spec{{Seed: 1, StartTick: -5}}}); err == nil {
		t.Error("negative StartTick accepted")
	}
}

// TestScenarioASnapshotForkMatchesStraightRun pins that a scenario-A
// session's attack state travels in its rig snapshot: a session forked
// after pedal-down but before the attack activates, restored into a fresh
// Build, must strike on the same tick and end with the straight run's
// digest.
func TestScenarioASnapshotForkMatchesStraightRun(t *testing.T) {
	sp := Spec{
		Seed: 21, TeleopSeconds: 0.6, Attack: "A", Guard: "monitor",
		AttackMagnitude: 4e-4, AttackDelay: 300, AttackDuration: 64,
	}
	orig, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	step := func(s *Session) sim.StepInfo {
		t.Helper()
		si, err := s.rig.Step()
		if err != nil {
			t.Fatal(err)
		}
		s.Note(si)
		return si
	}
	for pedal := 0; pedal < 100; {
		if orig.rig.Done() {
			t.Fatal("session ended before 100 pedal-down ticks")
		}
		if step(orig).Input.PedalDown {
			pedal++
		}
	}
	if orig.Injected() != 0 {
		t.Fatalf("attack already active at the fork (%d inputs injected)", orig.Injected())
	}
	snap, err := orig.rig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.rig.Restore(snap); err != nil {
		t.Fatal(err)
	}
	fork.dig, fork.ticks = orig.dig, orig.ticks

	for !orig.rig.Done() {
		step(orig)
	}
	for !fork.rig.Done() {
		step(fork)
	}
	if orig.Injected() == 0 {
		t.Fatal("weak fixture: the attack never activated")
	}
	if fork.Injected() != orig.Injected() || fork.Ticks() != orig.Ticks() || fork.Sum() != orig.Sum() {
		t.Fatalf("fork injected=%d ticks=%d digest=%016x, straight injected=%d ticks=%d digest=%016x",
			fork.Injected(), fork.Ticks(), fork.Sum(), orig.Injected(), orig.Ticks(), orig.Sum())
	}
}
