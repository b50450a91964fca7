// Benchmarks regenerating every table and figure of the paper's evaluation
// (DESIGN.md experiment index). Each BenchmarkTable*/BenchmarkFigure*
// target runs a reduced-size version of the corresponding experiment per
// iteration and reports the headline quantity as a custom metric; the
// full-size campaigns are driven by cmd/labrunner and recorded in
// EXPERIMENTS.md. Component micro-benchmarks at the bottom size the hot
// paths (kinematics, dynamics step, packet codec, write chain).
package ravenguard

import (
	"testing"

	"ravenguard/internal/core"
	"ravenguard/internal/dynamics"
	"ravenguard/internal/experiment"
	"ravenguard/internal/inject"
	"ravenguard/internal/interpose"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/malware"
	"ravenguard/internal/usb"
)

// --- Table II: malicious-wrapper overhead ---------------------------------

func benchTable2(b *testing.B, measure func(experiment.Table2Result) float64) {
	b.Helper()
	var last experiment.Table2Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTable2(experiment.Table2Config{Calls: 2000})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(measure(last), "us/call")
}

func BenchmarkTableII_Baseline(b *testing.B) {
	benchTable2(b, func(r experiment.Table2Result) float64 { return r.Baseline.Summary.Mean })
}

func BenchmarkTableII_Logging(b *testing.B) {
	benchTable2(b, func(r experiment.Table2Result) float64 { return r.Logging.Summary.Mean })
}

func BenchmarkTableII_Injection(b *testing.B) {
	benchTable2(b, func(r experiment.Table2Result) float64 { return r.Injection.Summary.Mean })
}

// --- Figure 5/6: eavesdropping and state inference ------------------------

func BenchmarkFigure5_ByteProfile(b *testing.B) {
	var distinct int
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig5(int64(21 + i))
		if err != nil {
			b.Fatal(err)
		}
		distinct = res.Byte0Masked
	}
	b.ReportMetric(float64(distinct), "byte0-states")
}

func BenchmarkFigure6_StateInference(b *testing.B) {
	matches := 0
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig6(int64(31 + i))
		if err != nil {
			b.Fatal(err)
		}
		matches = 0
		for _, run := range res.Runs {
			if run.TruthMatches {
				matches++
			}
		}
	}
	b.ReportMetric(float64(matches), "runs-matched-of-9")
}

// --- Figure 8: dynamic-model validation -----------------------------------

func benchFig8(b *testing.B, scheme string) {
	b.Helper()
	var stepMs float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig8(experiment.Fig8Config{Runs: 2, TeleopSeconds: 3, BaseSeed: int64(41 + i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Integrator == dynamics.SchemeName(scheme) {
				stepMs = row.AvgStepMs
			}
		}
	}
	b.ReportMetric(stepMs*1e3, "us/model-step")
}

func BenchmarkFigure8_Euler(b *testing.B) { benchFig8(b, "euler") }

func BenchmarkFigure8_RK4(b *testing.B) { benchFig8(b, "rk4") }

// --- Table IV: detection performance --------------------------------------

func benchTable4(b *testing.B, scenario experiment.Scenario) {
	b.Helper()
	var acc float64
	for i := 0; i < b.N; i++ {
		cfg := experiment.Table4Config{RunsA: 1, RunsB: 1, BaseSeed: int64(51 + i)}
		switch scenario {
		case experiment.ScenarioA:
			cfg.RunsB = 1
			cfg.RunsA = 24
		case experiment.ScenarioB:
			cfg.RunsA = 1
			cfg.RunsB = 24
		}
		res, err := experiment.RunTable4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if scenario == experiment.ScenarioA {
			acc = res.A.Dyn.Confusion.Accuracy()
		} else {
			acc = res.B.Dyn.Confusion.Accuracy()
		}
	}
	b.ReportMetric(acc, "dyn-ACC-%")
}

func BenchmarkTableIV_ScenarioA(b *testing.B) { benchTable4(b, experiment.ScenarioA) }

func BenchmarkTableIV_ScenarioB(b *testing.B) { benchTable4(b, experiment.ScenarioB) }

// --- Figure 9: impact/detection probability sweep --------------------------

func BenchmarkFigure9_Sweep(b *testing.B) {
	var pImpact float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig9(experiment.Fig9Config{
			Values:    []int16{8000, 20000},
			Durations: []int{8, 128},
			Reps:      3,
			BaseSeed:  int64(61 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		pImpact = res.Cells[len(res.Cells)-1].PImpact.Value()
	}
	b.ReportMetric(pImpact, "P(impact)-top-cell")
}

// --- Table I: attack-variant matrix ----------------------------------------

func BenchmarkTableI_Variants(b *testing.B) {
	impacted := 0
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTable1(int64(42 + i))
		if err != nil {
			b.Fatal(err)
		}
		impacted = 0
		for _, row := range res.Rows {
			if row.Impact != "No observable impact" {
				impacted++
			}
		}
	}
	b.ReportMetric(float64(impacted), "variants-with-impact-of-7")
}

// --- Ablations --------------------------------------------------------------

// BenchmarkAblations runs the four design-choice ablations (one shared
// campaign) and reports each ablation's TPR spread across its arms.
func BenchmarkAblations(b *testing.B) {
	var res []experiment.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiment.RunAblations(experiment.AblationConfig{Runs: 24, BaseSeed: int64(71 + i)}); err != nil {
			b.Fatal(err)
		}
	}
	for i, name := range []string{"fusion", "threshold", "placement", "resync"} {
		lo, hi := 101.0, -1.0
		for _, arm := range res[i].Arms {
			tpr := arm.Confusion.TPR()
			lo, hi = min(lo, tpr), max(hi, tpr)
		}
		b.ReportMetric(hi-lo, name+"-TPR-spread-%")
	}
}

// --- Component micro-benchmarks ---------------------------------------------

func BenchmarkKinematicsForward(b *testing.B) {
	jp := kinematics.DefaultLimits().Center()
	for i := 0; i < b.N; i++ {
		_ = kinematics.Forward(jp)
	}
}

func BenchmarkKinematicsInverse(b *testing.B) {
	pos := kinematics.Forward(kinematics.DefaultLimits().Center())
	for i := 0; i < b.N; i++ {
		if _, err := kinematics.Inverse(pos); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicsStep* time the fused kernel — the path the plant and
// the guard actually run; the *Reference variants in internal/dynamics
// keep the original Deriv-closure + Integrator-interface path as the
// comparison baseline.

func BenchmarkDynamicsStepEuler(b *testing.B) {
	benchDynamicsStep(b, false)
}

func BenchmarkDynamicsStepRK4(b *testing.B) {
	benchDynamicsStep(b, true)
}

func benchDynamicsStep(b *testing.B, rk4 bool) {
	b.Helper()
	s, err := dynamics.NewStepper(dynamics.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	var st dynamics.State
	st.SetJointPos(kinematics.DefaultLimits().Center(), kinematics.DefaultTransmission())
	s.SetTorque([3]float64{0.01, 0.01, 0.005})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(rk4, &st.X, 1e-3)
	}
}

func BenchmarkUSBCommandCodec(b *testing.B) {
	cmd := usb.Command{StateNibble: 0x0F, Watchdog: true, Seq: 3, DAC: [8]int16{1, -2, 3}}
	for i := 0; i < b.N; i++ {
		frame := cmd.Encode()
		if _, err := usb.DecodeCommand(frame[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterposeChainWrite(b *testing.B) {
	chain := interpose.NewChain(func([]byte) error { return nil })
	chain.Preload(malware.NewInjector(malware.InjectorConfig{Mode: malware.ModeDACOffset, Value: 100}))
	frame := usb.Command{StateNibble: 0x0F}.Encode()
	buf := make([]byte, len(frame))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, frame[:])
		if err := chain.Write(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuardOnWrite(b *testing.B) {
	guard, err := core.NewGuard(core.Config{Thresholds: core.DefaultThresholds()})
	if err != nil {
		b.Fatal(err)
	}
	// Sync the guard at the workspace center.
	fb := usb.Feedback{}
	mp := kinematics.DefaultTransmission().ToMotor(kinematics.DefaultLimits().Center())
	for i := 0; i < 3; i++ {
		fb.Encoder[i] = int32(mp[i] * 4000 / (2 * 3.14159265))
	}
	guard.OnFeedback(fb, 0)
	frame := usb.Command{StateNibble: 0x0F, DAC: [8]int16{500, 400, 300}}.Encode()
	buf := make([]byte, len(frame))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, frame[:])
		guard.OnWrite(buf)
	}
}

func BenchmarkFullSimStep(b *testing.B) {
	sys, err := NewSystem(SystemConfig{Seed: 1, Script: StandardScript(1e9)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Full trial ---------------------------------------------------------------

func BenchmarkAttackTrial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Trial{
			Seed:     int64(81 + i%7),
			Scenario: experiment.ScenarioB,
			B: inject.ScenarioBParams{
				Value: 16000, Channel: 0, StartDelayTicks: 800, ActivationTicks: 64,
			},
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// --- Extension experiments ----------------------------------------------------

func BenchmarkMitigationComparison(b *testing.B) {
	var holdCompletion float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunMitigationSweep([]int16{16000}, experiment.MitigationConfig{
			Attacks: 6, BaseSeed: int64(91 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		holdCompletion = res[0].Arms[2].CompletionRate
	}
	b.ReportMetric(holdCompletion, "holdsafe-P(complete)")
}

func BenchmarkDetectionLatency(b *testing.B) {
	var meanMs float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunLatency(experiment.LatencyConfig{
			Values: []int16{16000}, RunsPerValue: 6, BaseSeed: int64(95 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		meanMs = res.Rows[0].Latency.Mean
	}
	b.ReportMetric(meanMs, "alarm-latency-ms")
}
