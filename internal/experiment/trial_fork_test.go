package experiment

import (
	"math"
	"reflect"
	"testing"

	"ravenguard/internal/core"
	"ravenguard/internal/inject"
)

// Trial.Run forks every trial's reference, counterfactual and scored
// sessions off one shared head, and skips the counterfactual tail when the
// scored run trips nothing. These tests pin it byte-identical to the
// straight oracle (runTrialStraight: every session whole from t=0) per
// trial, at 1 and 8 workers, from a cold reference cache.

// requireForkedMatchesStraight runs batches in order, straight once and
// then forked at 1 and 8 workers, each pass from a cold cache kept across
// its batches, requires identical per-trial results and returns the
// straight ones.
func requireForkedMatchesStraight(t *testing.T, batches ...[]Trial) [][]Result {
	t.Helper()
	ResetReferenceCache()
	var straight [][]Result
	for i, b := range batches {
		res, err := runTrialsStraight(b)
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
			twin, err := runTrialStraight(Trial{Seed: tr.Seed, TrajIdx: tr.TrajIdx, Teleop: tr.Teleop, Scenario: ScenarioNone})
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
	// Every ablation knob changes the guard on the scored rig the head
	// runs on; each variant covers a scenario-B and a scenario-A trial.
	base := []Trial{
		{Seed: 21, TrajIdx: 1, Teleop: 2, Scenario: ScenarioB,
			B: inject.ScenarioBParams{Value: 16000, Channel: 1, StartDelayTicks: 700, ActivationTicks: 64, Seed: 5}},
		{Seed: 22, Teleop: 2, Scenario: ScenarioA,
			A: inject.ScenarioAParams{Magnitude: 2e-4, StartAfterTicks: 600, ActivationTicks: 64}},
	}
	for _, v := range []struct {
		name   string
		mutate func(*Trial)
	}{
		{"guard-above-malware", func(tr *Trial) { tr.GuardAboveMalware = true }},
		{"resync-kalman", func(tr *Trial) { tr.Resync = "kalman" }},
		{"integrator-rk4", func(tr *Trial) { tr.Integrator = "rk4" }},
		{"fusion-any", func(tr *Trial) { tr.Fusion = core.FusionAny }},
	} {
		t.Run(v.name, func(t *testing.T) {
			trials := append([]Trial(nil), base...)
			for i := range trials {
				v.mutate(&trials[i])
			}
			requireForkedMatchesStraight(t, trials)
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
