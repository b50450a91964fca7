package experiment

import (
	"math"
	"reflect"
	"testing"

	"ravenguard/internal/console"
	"ravenguard/internal/control"
	"ravenguard/internal/core"
	"ravenguard/internal/inject"
	"ravenguard/internal/mathx"
)

// Trial.Run forks every trial's reference, counterfactual and scored
// sessions off one shared head, and skips the counterfactual tail when the
// scored run trips nothing. These tests pin it byte-identical to the
// straight oracle (runTrialStraight: every session whole from t=0) per
// trial, at 1 and 8 workers, from a cold reference cache, and pin every
// ride-along detector of a shared run to that detector run alone.

// requireForkedMatchesStraight runs batches in order, straight once and
// then forked at 1 and 8 workers, each pass from a cold cache kept across
// its batches, requires identical per-trial results and returns the
// straight ones.
func requireForkedMatchesStraight(t *testing.T, batches ...[]Trial) [][]Result {
	t.Helper()
	ResetReferenceCache()
	var straight [][]Result
	for i, b := range batches {
		res, err := runTrialsStraight(b, detector{})
		if err != nil {
			t.Fatalf("straight batch %d: %v", i, err)
		}
		straight = append(straight, res)
	}
	for _, workers := range []int{1, 8} {
		withWorkers(t, workers, func() {
			ResetReferenceCache()
			for i, b := range batches {
				forked, err := runTrials(b)
				if err != nil {
					t.Fatalf("workers=%d: forked batch %d: %v", workers, i, err)
				}
				for j := range b {
					if !reflect.DeepEqual(straight[i][j], forked[j]) {
						t.Fatalf("workers=%d: batch %d trial %d (%+v) diverged\nstraight: %+v\nforked:   %+v",
							workers, i, j, b[j], straight[i][j], forked[j])
					}
				}
			}
		})
	}
	return straight
}

// requireBothTailPaths requires, for scenarios A and B each, an attack
// trial whose scored run tripped nothing (Trial.Run reuses its tail as the
// ground truth) and one whose scored run tripped after a clean head
// (Trial.Run forks the counterfactual tail). A head is clean when the
// trial's fault-free twin never trips: the head is that session's prefix.
//
// A head that trips takes the straight oracle's own path (the
// counterfactual whole from t=0), but no Trial reaches it: a dormant
// attack changes nothing, and no fault-free session trips RAVEN's checks.
func requireBothTailPaths(t *testing.T, trials []Trial, results []Result) {
	t.Helper()
	for _, sc := range []Scenario{ScenarioA, ScenarioB} {
		reused, forked := false, false
		for i, tr := range trials {
			r := results[i]
			if tr.Scenario != sc {
				continue
			}
			if !r.RavenDetected && !r.Halted {
				reused = true
				continue
			}
			if forked {
				continue
			}
			twin, err := runTrialStraight(Trial{Seed: tr.Seed, TrajIdx: tr.TrajIdx, Teleop: tr.Teleop, Scenario: ScenarioNone}, detector{})
			if err != nil {
				t.Fatal(err)
			}
			forked = !twin.RavenDetected && !twin.Halted
		}
		if !reused || !forked {
			t.Fatalf("scenario %v: tail-reused trial %v, counterfactual-forked trial %v; want both", sc, reused, forked)
		}
	}
}

func TestTable4ForkedMatchesStraight(t *testing.T) {
	// Table IV keys references by trial index mod 194 within a scenario,
	// so each later batch re-reads keys an earlier batch made cold:
	// A[0,4) cold, A[194,198) warm + B[0,4) cold, B[194,198) warm + B[30]
	// cold. A[194] and B[30] trip RAVEN's checks; the others do not.
	cfg := Table4Config{RunsA: 198, RunsB: 198, FaultFreeFrac: 0.3, BaseSeed: 4}
	batches := [][]Trial{
		scenarioATrials(cfg, 0, 4),
		append(scenarioATrials(cfg, 194, 198), scenarioBTrials(cfg, 0, 4)...),
		append(scenarioBTrials(cfg, 194, 198), scenarioBTrials(cfg, 30, 31)...),
	}
	seen := map[refKey]bool{}
	kinds := map[Scenario]int{}
	warm := 0
	for _, b := range batches {
		for _, tr := range b {
			kinds[tr.Scenario]++
		}
		for _, tr := range b {
			if seen[tr.refKey()] {
				warm++
			}
		}
		for _, tr := range b {
			seen[tr.refKey()] = true
		}
	}
	if kinds[ScenarioNone] == 0 || kinds[ScenarioA] == 0 || kinds[ScenarioB] == 0 || warm == 0 {
		t.Fatalf("config covers scenarios %v with %d warm-key trials; want fault-free, A, B and warm keys", kinds, warm)
	}
	straight := requireForkedMatchesStraight(t, batches...)
	var trials []Trial
	var results []Result
	for i, b := range batches {
		trials = append(trials, b...)
		results = append(results, straight[i]...)
	}
	requireBothTailPaths(t, trials, results)
}

func TestFig9ForkedMatchesStraight(t *testing.T) {
	cfg := Fig9Config{Values: []int16{24000}, Durations: []int{4, 64}, Reps: 2, BaseSeed: 9}
	var trials []Trial
	for idx := 0; idx < Fig9Jobs(cfg); idx++ {
		trials = append(trials, fig9Trial(cfg, idx))
	}
	requireForkedMatchesStraight(t, trials)
}

func TestAblationTrialsForkedMatchStraight(t *testing.T) {
	// Ride-along detectors: one forked run with every ablation detector
	// (plus the rk4 model) on the scored rig must score each detector
	// exactly as a straight run with that detector alone does, over a
	// scenario-B, a scenario-A and a fault-free trial, at 1 and 8 workers.
	trials := []Trial{
		{Seed: 21, TrajIdx: 1, Teleop: 2, Scenario: ScenarioB,
			B: inject.ScenarioBParams{Value: 16000, Channel: 1, StartDelayTicks: 700, ActivationTicks: 64, Seed: 5}},
		{Seed: 22, Teleop: 2, Scenario: ScenarioA,
			A: inject.ScenarioAParams{Magnitude: 2e-4, StartAfterTicks: 600, ActivationTicks: 64}},
		{Seed: 23, TrajIdx: 1, Teleop: 2, Scenario: ScenarioNone},
	}
	dets := append(ablationDetectors(), detector{cfg: core.Config{Integrator: "rk4"}})
	names := []string{"paper", "fusion-any", "thresholds-x0.5", "thresholds-x2",
		"guard-above-malware", "resync-kalman", "integrator-rk4"}

	ResetReferenceCache()
	straight := make([][]Result, len(dets)) // [detector][trial]
	for d, det := range dets {
		res, err := runTrialsStraight(trials, det)
		if err != nil {
			t.Fatalf("%s: straight: %v", names[d], err)
		}
		straight[d] = res
	}
	distinct := false
	for i := range trials {
		for d := range dets {
			distinct = distinct || straight[d][i] != straight[0][i]
		}
	}
	if !distinct {
		t.Fatal("every detector scored every trial alike; the test cannot tell detectors apart")
	}

	shared := map[int][][]Result{} // workers -> [trial][detector]
	for _, workers := range []int{1, 8} {
		withWorkers(t, workers, func() {
			ResetReferenceCache()
			res, err := runJobs(len(trials), func(i int) ([]Result, error) {
				res, _, err := trials[i].run(dets)
				return res, err
			})
			if err != nil {
				t.Fatalf("workers=%d: shared run: %v", workers, err)
			}
			shared[workers] = res
		})
	}
	for d, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				for i, tr := range trials {
					if got := shared[workers][i][d]; !reflect.DeepEqual(straight[d][i], got) {
						t.Fatalf("workers=%d: %v trial diverged\nalone:  %+v\nshared: %+v",
							workers, tr.Scenario, straight[d][i], got)
					}
				}
			}
		})
	}
}

func TestTrialForkEdgesMatchStraight(t *testing.T) {
	// Where the fork falls: before the first step (activation on the first
	// pedal-down frame), after the session ends (the attack never fires),
	// and a fault-free trial whose head is the whole session.
	never := 1 << 20
	requireForkedMatchesStraight(t, []Trial{
		{Seed: 31, Teleop: 2, Scenario: ScenarioA,
			A: inject.ScenarioAParams{Magnitude: 4e-4, StartAfterTicks: 0, ActivationTicks: 32}},
		{Seed: 31, Teleop: 2, Scenario: ScenarioB,
			B: inject.ScenarioBParams{Value: 20000, StartDelayTicks: 0, ActivationTicks: 32}},
		{Seed: 32, Teleop: 2, Scenario: ScenarioA,
			A: inject.ScenarioAParams{Magnitude: 4e-4, StartAfterTicks: never, ActivationTicks: 32}},
		{Seed: 32, Teleop: 2, Scenario: ScenarioB,
			B: inject.ScenarioBParams{Value: 20000, StartDelayTicks: never, ActivationTicks: 32}},
		{Seed: 33, Teleop: 2, Scenario: ScenarioNone},
	})
}

func TestForkedTrialPublishesReference(t *testing.T) {
	for _, tr := range []Trial{
		{Seed: 41, TrajIdx: 1, Teleop: 2, Scenario: ScenarioB,
			B: inject.ScenarioBParams{Value: 12000, StartDelayTicks: 500, ActivationTicks: 16}},
		{Seed: 42, Teleop: 2, Scenario: ScenarioA,
			A: inject.ScenarioAParams{Magnitude: 1e-4, StartAfterTicks: 0, ActivationTicks: 16}},
		{Seed: 43, Teleop: 2, Scenario: ScenarioNone},
	} {
		ResetReferenceCache()
		if _, err := tr.Run(); err != nil {
			t.Fatal(err)
		}
		got, ok := tr.cachedReference()
		if !ok {
			t.Fatalf("%v trial published no reference", tr.Scenario)
		}
		ResetReferenceCache()
		want, err := tr.reference()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v trial: published reference has %d steps, want %d", tr.Scenario, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(g.X) != math.Float64bits(w.X) ||
				math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
				math.Float64bits(g.Z) != math.Float64bits(w.Z) {
				t.Fatalf("%v trial: published reference step %d = %v, want %v", tr.Scenario, i, g, w)
			}
		}
	}
}

// clearCaches empties the reference cache, the homing checkpoints, or both.
func clearCaches(refs, homing bool) {
	_refs.mu.Lock()
	defer _refs.mu.Unlock()
	if refs {
		_refs.m = make(map[refKey][]mathx.Vec3)
	}
	if homing {
		_refs.homing = make(map[homingKey]*homingCheckpoint)
	}
}

// attackDelay is the trial's configured attack delay in pedal-down frames.
func (tr Trial) attackDelay() int {
	switch tr.Scenario {
	case ScenarioA:
		return tr.A.StartAfterTicks
	case ScenarioB:
		return tr.B.StartDelayTicks
	}
	return math.MaxInt
}

func TestHomingCheckpointMatchesStraight(t *testing.T) {
	// Same-seed trials on both trajectories and of every scenario share a
	// homing checkpoint. Every trial must score as the straight oracle
	// does, whether its checkpoint was cold (it ran homing and published)
	// or warm (it restored), with its reference cold or warm, at 1 and 8
	// workers. Each seed's trials are listed publisher first, so at one
	// worker a fault-free checkpoint resumes scenario-A trials, a
	// scenario-A one resumes scenario-B and fault-free trials, and a
	// scenario-B one resumes scenario-B and scenario-A trials. Seed 53's
	// RandomByte pair draws from per-trial injector seeds, so a restore
	// that leaked the publishing trial's rng would show; seed 51's first
	// scenario-A trial is due within forkMargin frames of pedal-down, so it
	// runs its head without the checkpoint its key shares. The ablation
	// set preloads its above-malware guard under every scenario, so its
	// scenario-B and fault-free trials share checkpoints too.
	bParams := func(seed int64, random bool, delay int) inject.ScenarioBParams {
		return inject.ScenarioBParams{Value: 20000, Channel: 1, StartDelayTicks: delay, ActivationTicks: 64,
			RandomByte: random, Seed: seed}
	}
	aParams := func(delay int) inject.ScenarioAParams {
		return inject.ScenarioAParams{Magnitude: 3e-4, StartAfterTicks: delay, ActivationTicks: 64}
	}
	groups := []struct {
		name   string
		dets   []detector
		trials []Trial
	}{
		{"paper", paperDetector, []Trial{
			{Seed: 51, Teleop: 2, Scenario: ScenarioNone},
			{Seed: 51, Teleop: 2, Scenario: ScenarioA, A: aParams(forkMargin)},
			{Seed: 51, Teleop: 2, Scenario: ScenarioA, A: aParams(300)},
			{Seed: 51, TrajIdx: 1, Teleop: 2, Scenario: ScenarioA, A: aParams(700)},
			{Seed: 52, TrajIdx: 1, Teleop: 2, Scenario: ScenarioA, A: aParams(500)},
			{Seed: 52, Teleop: 2, Scenario: ScenarioB, B: bParams(1, false, 400)},
			{Seed: 52, TrajIdx: 1, Teleop: 2, Scenario: ScenarioB, B: bParams(2, false, 650)},
			{Seed: 52, TrajIdx: 1, Teleop: 2, Scenario: ScenarioNone},
			{Seed: 53, Teleop: 2, Scenario: ScenarioB, B: bParams(3, true, 500)},
			{Seed: 53, TrajIdx: 1, Teleop: 2, Scenario: ScenarioB, B: bParams(4, true, 500)},
			{Seed: 53, Teleop: 2, Scenario: ScenarioA, A: aParams(600)},
		}},
		{"ablation", ablationDetectors(), []Trial{
			{Seed: 52, Teleop: 2, Scenario: ScenarioB, B: bParams(1, false, 400)},
			{Seed: 52, TrajIdx: 1, Teleop: 2, Scenario: ScenarioB, B: bParams(2, false, 650)},
			{Seed: 52, Teleop: 2, Scenario: ScenarioNone},
			{Seed: 54, Teleop: 2, Scenario: ScenarioNone},
			{Seed: 54, TrajIdx: 1, Teleop: 2, Scenario: ScenarioB, B: bParams(5, false, 500)},
		}},
	}

	homing := console.StandardScript(2).HomingTicks(control.Period)
	ResetReferenceCache()
	straight := make([][][]Result, len(groups)) // [group][trial][detector]
	eligible := map[homingKey]int32{}
	for g, grp := range groups {
		for _, tr := range grp.trials {
			res := make([]Result, len(grp.dets))
			for d, det := range grp.dets {
				var err error
				if res[d], err = runTrialStraight(tr, det); err != nil {
					t.Fatalf("%s: straight: %v", grp.name, err)
				}
			}
			straight[g] = append(straight[g], res)
			if tr.attackDelay() > forkMargin {
				eligible[tr.homingKey(grp.dets)]++
			}
		}
	}
	if len(eligible) != 5 {
		t.Fatalf("%d homing keys, want 5", len(eligible))
	}

	resumes := func() map[homingKey]int32 {
		n := map[homingKey]int32{}
		for key := range eligible {
			if cp := cachedHoming(key); cp != nil {
				n[key] = cp.resumes.Load()
			}
		}
		return n
	}
	runAll := func(workers int, pass string) {
		t.Helper()
		for g, grp := range groups {
			res, err := runJobs(len(grp.trials), func(i int) ([]Result, error) {
				res, _, err := grp.trials[i].run(grp.dets)
				return res, err
			})
			if err != nil {
				t.Fatalf("workers=%d %s: %s: %v", workers, pass, grp.name, err)
			}
			for i, tr := range grp.trials {
				if !reflect.DeepEqual(straight[g][i], res[i]) {
					t.Fatalf("workers=%d %s: %s trial %d (%+v) diverged\nstraight: %+v\nforked:   %+v",
						workers, pass, grp.name, i, tr, straight[g][i], res[i])
				}
			}
		}
	}
	requireResumes := func(workers int, pass string, before map[homingKey]int32, warm bool) {
		t.Helper()
		after := resumes()
		for key, n := range eligible {
			got, want := after[key]-before[key], n
			if !warm {
				want--
			}
			// Concurrent trials of one key may each find it cold, so at 8
			// workers only a warm pass pins the count.
			if got != want && (warm || workers == 1) {
				t.Fatalf("workers=%d %s: key %+v resumed %d trials, want %d", workers, pass, key, got, want)
			}
		}
	}

	for _, workers := range []int{1, 8} {
		withWorkers(t, workers, func() {
			ResetReferenceCache()
			runAll(workers, "cold")
			requireResumes(workers, "cold", nil, false)

			// The checkpoint precedes every attack count: at its step a
			// trial run straight has its whole configured delay left, so
			// the fresh attack state a resumed trial keeps is the state
			// its own straight run would hold there.
			for _, grp := range groups {
				for _, tr := range grp.trials {
					if tr.Scenario == ScenarioNone || tr.attackDelay() <= forkMargin {
						continue
					}
					cp := cachedHoming(tr.homingKey(grp.dets))
					if cp == nil || cp.snap.Steps != homing {
						t.Fatalf("%s: %v trial has no checkpoint at step %d", grp.name, tr.Scenario, homing)
					}
					rig, _, att, err := tr.scoredRig(grp.dets)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := rig.Run(cp.snap.Steps); err != nil {
						t.Fatal(err)
					}
					if got := att.FramesUntilActive(); got != tr.attackDelay() {
						t.Fatalf("%s: %v trial %d frames from activation at the checkpoint, want %d",
							grp.name, tr.Scenario, got, tr.attackDelay())
					}
				}
			}

			before := resumes()
			clearCaches(true, false)
			runAll(workers, "warm checkpoints, cold references")
			requireResumes(workers, "warm checkpoints", before, true)

			clearCaches(false, true)
			runAll(workers, "cold checkpoints, warm references")
			requireResumes(workers, "cold checkpoints", nil, false)
		})
	}
}
