package experiment

import "testing"

// End-to-end campaign benchmarks, forked vs straight. Each iteration
// clears the reference cache so every run pays the full campaign cost
// (references included) — the same work a cold labrunner invocation does.

func BenchmarkTable1Campaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResetReferenceCache()
		if _, err := RunTable1(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1CampaignStraight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResetReferenceCache()
		if _, err := runTable1Straight(1); err != nil {
			b.Fatal(err)
		}
	}
}

// The fault campaign at the -quick size (all 11 kinds, 1 seed, 4 s of
// teleoperation): 44 full sessions straight, vs 4 shared heads + 44
// continuations restored from their snapshots forked.
func benchFaultCfg() FaultCampaignConfig {
	return FaultCampaignConfig{BaseSeed: 1, Seeds: 1, Teleop: 4}
}

func BenchmarkFaultCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResetReferenceCache()
		if _, err := RunFaultCampaign(benchFaultCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultCampaignStraight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResetReferenceCache()
		if _, err := runFaultCampaignStraight(benchFaultCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// Table IV at 16 + 16 trials (about 15% fault-free): one shared head per
// trial forked into its reference, counterfactual and scored tails,
// against up to three whole sessions per trial straight.
func benchTable4Cfg() Table4Config {
	return Table4Config{RunsA: 16, RunsB: 16, BaseSeed: 1}
}

func BenchmarkTable4Campaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResetReferenceCache()
		if _, err := RunTable4(benchTable4Cfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4CampaignStraight(b *testing.B) {
	cfg := benchTable4Cfg()
	cfg.applyDefaults()
	trials := append(scenarioATrials(cfg, 0, cfg.RunsA), scenarioBTrials(cfg, 0, cfg.RunsB)...)
	for i := 0; i < b.N; i++ {
		ResetReferenceCache()
		if _, err := runTrialsStraight(trials, detector{}); err != nil {
			b.Fatal(err)
		}
	}
}

// The mitigation sweep at labrunner's three values, -quick attack count.
func BenchmarkMitigationSweep(b *testing.B) {
	values := []int16{12000, 16000, 20000}
	for i := 0; i < b.N; i++ {
		ResetReferenceCache()
		if _, err := RunMitigationSweep(values, MitigationConfig{Attacks: 12, BaseSeed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMitigationSweepStraight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResetReferenceCache()
		for _, v := range []int16{12000, 16000, 20000} {
			if _, err := runMitigationStraight(MitigationConfig{Attacks: 12, Value: v, BaseSeed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
