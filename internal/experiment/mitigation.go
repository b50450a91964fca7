package experiment

import (
	"fmt"
	"io"

	"ravenguard/internal/core"
	"ravenguard/internal/inject"
	"ravenguard/internal/mathx"
	"ravenguard/internal/sim"
	"ravenguard/internal/statemachine"
	"ravenguard/internal/stats"
)

// MitigationConfig sizes the mitigation-strategy comparison (an extension
// experiment: the paper names both strategies — halting via E-STOP and
// holding the last safe state — without quantifying the trade; this
// experiment does).
type MitigationConfig struct {
	// Attacks per arm (default 60).
	Attacks int
	// Value/Duration of the scenario-B attack used for the comparison.
	Value    int16
	Duration int
	BaseSeed int64
}

func (c *MitigationConfig) applyDefaults() {
	if c.Attacks == 0 {
		c.Attacks = 60
	}
	if c.Value == 0 {
		c.Value = 18000
	}
	if c.Duration == 0 {
		c.Duration = 128
	}
}

// MitigationArm is one strategy's outcomes.
type MitigationArm struct {
	Name string
	// JumpRate is the fraction of attacks that still produced a >1 mm
	// unintended jump: a windowed measure (the deviation from the
	// reference changing by more than 1 mm within 50 ms), so that a
	// mitigation that *pauses* the robot is charged lag, not a jump.
	JumpRate float64
	// CompletionRate is the fraction of sessions that finished the
	// procedure (no E-STOP): the availability the paper worries about
	// ("practically make the robot unavailable to the surgical team").
	CompletionRate float64
	// Lag summarises the peak cumulative deviation from the reference
	// (mm) — the catch-up cost of pausing mitigations.
	Lag stats.Summary
	// Jump summarises the peak windowed displacement (mm).
	Jump stats.Summary
}

// jumpWindowTicks is the window of the jump oracle (50 ms at 1 kHz).
const jumpWindowTicks = 50

// MitigationResult compares the arms.
type MitigationResult struct {
	Config MitigationConfig
	Arms   []MitigationArm
}

// mitigationRun is what one attacked session produced.
type mitigationRun struct {
	maxLag    float64 // peak cumulative deviation from the reference, m
	maxJump   float64 // peak windowed displacement, m
	completed bool    // session finished without E-STOP
}

// runMitigationOne attacks one session under one guard mode (0 = no
// guard).
func runMitigationOne(cfg MitigationConfig, mode core.Mode, i int) (mitigationRun, error) {
	trial := Trial{Seed: cfg.BaseSeed + int64(8000+i%37), TrajIdx: i % 2}
	ref, err := trial.reference()
	if err != nil {
		return mitigationRun{}, err
	}

	simCfg := sim.Config{
		Seed:   trial.Seed,
		Script: trial.script(),
		Traj:   trial.trajectory(),
	}
	inj, err := inject.NewScenarioB(inject.ScenarioBParams{
		Value:           cfg.Value,
		Channel:         i % 3,
		StartDelayTicks: 500 + 53*(i%31),
		ActivationTicks: cfg.Duration,
		Seed:            int64(i),
	})
	if err != nil {
		return mitigationRun{}, err
	}
	simCfg.Preload = append(simCfg.Preload, inj)

	if mode != 0 {
		guard, err := core.NewGuard(core.Config{
			Thresholds: core.DefaultThresholds(),
			Mode:       mode,
		})
		if err != nil {
			return mitigationRun{}, err
		}
		simCfg.Guards = append(simCfg.Guards, guard)
	}

	rig, err := sim.New(simCfg)
	if err != nil {
		return mitigationRun{}, err
	}
	var (
		rec    mitigationRun
		step   int
		halted bool
		// devRing holds the recent deviation vectors for the windowed
		// jump measure.
		devRing [jumpWindowTicks]mathx.Vec3
	)
	rig.Observe(func(si sim.StepInfo) {
		// Measure only while the system is live: after a halt the
		// reference keeps moving while the robot is frozen, which is
		// divergence, not motion.
		if !halted && step < len(ref) {
			dev := si.TipTrue.Sub(ref[step])
			if lag := dev.Norm(); lag > rec.maxLag {
				rec.maxLag = lag
			}
			if step >= jumpWindowTicks {
				if j := dev.Sub(devRing[step%jumpWindowTicks]).Norm(); j > rec.maxJump {
					rec.maxJump = j
				}
			}
			devRing[step%jumpWindowTicks] = dev
		}
		if si.PLCEStop {
			halted = true
		}
		step++
	})
	if _, err := rig.Run(0); err != nil {
		return mitigationRun{}, err
	}
	rec.completed = !rig.PLC().EStopped() && rig.Controller().State() != statemachine.EStop
	return rec, nil
}

// mitigationArms lists the compared regimes, in reporting order.
var mitigationArms = []struct {
	name string
	mode core.Mode // 0 = no guard
}{
	{"no guard (RAVEN only)", 0},
	{"guard: E-STOP mitigation", core.ModeMitigate},
	{"guard: hold-last-safe", core.ModeHoldSafe},
}

// RunMitigationComparison attacks identical sessions under three regimes:
// no guard (RAVEN's built-in response only), guard with E-STOP mitigation,
// and guard with hold-last-safe mitigation. All (arm, attack) sessions fan
// out onto the worker pool; each arm's statistics reduce in attack order.
func RunMitigationComparison(cfg MitigationConfig) (MitigationResult, error) {
	cfg.applyDefaults()
	out := MitigationResult{Config: cfg}
	arms := mitigationArms
	recs, err := runJobs(len(arms)*cfg.Attacks, func(i int) (mitigationRun, error) {
		return runMitigationOne(cfg, arms[i/cfg.Attacks].mode, i%cfg.Attacks)
	})
	if err != nil {
		return MitigationResult{}, err
	}

	for ai, armSpec := range arms {
		arm := MitigationArm{Name: armSpec.name}
		jumps, completions := 0, 0
		// Lag/Jump reduce through the index-aligned forest (not a left
		// fold), so sharded sweeps merge to the same bits — see
		// stats.Forest.
		lags, jumpSizes := stats.NewForest(0), stats.NewForest(0)
		for i := 0; i < cfg.Attacks; i++ {
			rec := recs[ai*cfg.Attacks+i]
			if rec.maxJump > AdverseJumpThreshold {
				jumps++
			}
			if rec.completed {
				completions++
			}
			lags.Add(rec.maxLag * 1e3)
			jumpSizes.Add(rec.maxJump * 1e3)
		}
		arm.JumpRate = float64(jumps) / float64(cfg.Attacks)
		arm.CompletionRate = float64(completions) / float64(cfg.Attacks)
		arm.Lag = lags.Summarize()
		arm.Jump = jumpSizes.Summarize()
		out.Arms = append(out.Arms, arm)
	}
	return out, nil
}

// mitigationPrefixSteps is the sweep's fork point: 3.0 s. The earliest
// scenario-B activation is 500 triggered (pedal-down) frames after the
// pedal drops at ~2.55 s, i.e. ~3.05 s — so at 3.0 s every injector is
// still dormant and the session head is independent of the attack value.
const mitigationPrefixSteps = 3000

// mitState is the windowed-jump observer's carried state.
type mitState struct {
	halted  bool
	step    int
	devRing [jumpWindowTicks]mathx.Vec3
}

// observeMitigation attaches the lag/jump observer, resuming from the
// carried state (st and rec mutate in place).
func observeMitigation(rig *sim.Rig, ref []mathx.Vec3, st *mitState, rec *mitigationRun) {
	rig.Observe(func(si sim.StepInfo) {
		// Measure only while the system is live: after a halt the
		// reference keeps moving while the robot is frozen, which is
		// divergence, not motion.
		if !st.halted && st.step < len(ref) {
			dev := si.TipTrue.Sub(ref[st.step])
			if lag := dev.Norm(); lag > rec.maxLag {
				rec.maxLag = lag
			}
			if st.step >= jumpWindowTicks {
				if j := dev.Sub(st.devRing[st.step%jumpWindowTicks]).Norm(); j > rec.maxJump {
					rec.maxJump = j
				}
			}
			st.devRing[st.step%jumpWindowTicks] = dev
		}
		if si.PLCEStop {
			st.halted = true
		}
		st.step++
	})
}

// mitigationSessionRig builds one attacked session rig with the given
// injection value (mirrors runMitigationOne's construction).
func mitigationSessionRig(cfg MitigationConfig, mode core.Mode, i int, value int16) (*sim.Rig, error) {
	trial := Trial{Seed: cfg.BaseSeed + int64(8000+i%37), TrajIdx: i % 2}
	simCfg := sim.Config{
		Seed:   trial.Seed,
		Script: trial.script(),
		Traj:   trial.trajectory(),
	}
	inj, err := inject.NewScenarioB(inject.ScenarioBParams{
		Value:           value,
		Channel:         i % 3,
		StartDelayTicks: 500 + 53*(i%31),
		ActivationTicks: cfg.Duration,
		Seed:            int64(i),
	})
	if err != nil {
		return nil, err
	}
	simCfg.Preload = append(simCfg.Preload, inj)
	if mode != 0 {
		guard, err := core.NewGuard(core.Config{
			Thresholds: core.DefaultThresholds(),
			Mode:       mode,
		})
		if err != nil {
			return nil, err
		}
		simCfg.Guards = append(simCfg.Guards, guard)
	}
	return sim.New(simCfg)
}

// mitPrefix is one (arm, attack) group's shared session head. The rig it
// simulated the head on is carried along (with its observer state, held by
// pointer so the fan sees the prefix observer's writes): the rig was built
// with values[0] and already sits at the fork state, so the fan continues
// it as the first fork lane instead of building and restoring a fresh rig.
type mitPrefix struct {
	rig  *sim.Rig
	snap sim.Snapshot
	ref  []mathx.Vec3
	rec  *mitigationRun // partial lag/jump maxima at the fork point
	st   *mitState
}

// MitigationSweepJobs is the size of the sweep's shardable job space: one
// job per attack index (each covering every arm × value session).
func MitigationSweepJobs(cfg MitigationConfig) int {
	cfg.applyDefaults()
	return cfg.Attacks
}

// MitigationArmPartial is one (value, arm) cell's mergeable aggregate over
// an attack-index range: counters plus the index-aligned lag/jump forests,
// so partials of any contiguous partition merge to the bits of the
// whole-range run.
type MitigationArmPartial struct {
	Attacks     int           `json:"attacks"`
	Jumps       int           `json:"jumps"`
	Completions int           `json:"completions"`
	Lag         *stats.Forest `json:"lag"`
	Jump        *stats.Forest `json:"jump"`
}

// MitigationPartial is the sweep's partial aggregate over one attack-index
// range: the (value, arm) cell grid, value-major.
type MitigationPartial struct {
	Values []int16                `json:"values"`
	Arms   []MitigationArmPartial `json:"arms"`
}

// RunMitigationSweep runs the mitigation comparison for several attack
// values at once, returning one MitigationResult per value (in input
// order), byte-identical to calling RunMitigationComparison per value.
//
// The attacked sessions differ across values only in the value the
// injector writes once it activates — and every injector is still dormant
// at mitigationPrefixSteps — so each (arm, attack) session head is
// simulated once, snapshotted, and forked into one rig per value; the
// forks then step together on the lockstep tick engine (sim.Lockstep).
func RunMitigationSweep(values []int16, cfg MitigationConfig) ([]MitigationResult, error) {
	cfg.applyDefaults()
	p, err := RunMitigationSweepRange(values, cfg, 0, cfg.Attacks)
	if err != nil {
		return nil, err
	}
	return FinalizeMitigationSweep(cfg, p)
}

// RunMitigationSweepRange runs the sweep's sessions at attack indices
// [lo, hi) — the campaign's shardable job space.
func RunMitigationSweepRange(values []int16, cfg MitigationConfig, lo, hi int) (MitigationPartial, error) {
	cfg.applyDefaults()
	if len(values) == 0 {
		values = []int16{cfg.Value}
	}
	if lo < 0 || hi > cfg.Attacks || lo > hi {
		return MitigationPartial{}, fmt.Errorf("experiment: mitigation range %d:%d outside [0,%d)", lo, hi, cfg.Attacks)
	}
	span := hi - lo
	arms := mitigationArms
	out := MitigationPartial{Values: append([]int16{}, values...)}
	if span == 0 {
		return out, nil
	}
	groups, err := runGroups(len(arms)*span,
		func(g int) (mitPrefix, error) {
			mode, i := arms[g/span].mode, lo+g%span
			trial := Trial{Seed: cfg.BaseSeed + int64(8000+i%37), TrajIdx: i % 2}
			p := mitPrefix{rec: &mitigationRun{}, st: &mitState{}}
			ref, err := trial.reference()
			if err != nil {
				return p, err
			}
			p.ref = ref
			rig, err := mitigationSessionRig(cfg, mode, i, values[0])
			if err != nil {
				return p, err
			}
			observeMitigation(rig, ref, p.st, p.rec)
			if _, err := rig.Run(mitigationPrefixSteps); err != nil {
				return p, err
			}
			p.rig = rig
			if len(values) > 1 {
				p.snap, err = rig.Snapshot()
			}
			return p, err
		},
		func(int) int { return 1 },
		func(g, _ int, p mitPrefix) ([]mitigationRun, error) {
			mode, i := arms[g/span].mode, lo+g%span
			rigs := make([]*sim.Rig, len(values))
			recs := make([]mitigationRun, len(values))
			states := make([]mitState, len(values))
			// The prefix rig was built with values[0] and is already at the
			// fork state: continue it as lane 0 (its observer keeps writing
			// into p.rec/p.st). The remaining values fork via the snapshot.
			rigs[0] = p.rig
			for vi := 1; vi < len(values); vi++ {
				rig, err := mitigationSessionRig(cfg, mode, i, values[vi])
				if err != nil {
					return nil, err
				}
				if err := rig.Restore(p.snap); err != nil {
					return nil, err
				}
				recs[vi] = *p.rec
				states[vi] = *p.st // arrays copy by value: each fork owns its ring
				observeMitigation(rig, p.ref, &states[vi], &recs[vi])
				rigs[vi] = rig
			}
			if err := sim.RunLockstep(rigs); err != nil {
				return nil, err
			}
			recs[0] = *p.rec
			for vi, rig := range rigs {
				recs[vi].completed = !rig.PLC().EStopped() && rig.Controller().State() != statemachine.EStop
			}
			return recs, nil
		})
	if err != nil {
		return MitigationPartial{}, err
	}

	for range values {
		for range arms {
			out.Arms = append(out.Arms, MitigationArmPartial{
				Attacks: span,
				Lag:     stats.NewForest(lo),
				Jump:    stats.NewForest(lo),
			})
		}
	}
	for vi := range values {
		for ai := range arms {
			cell := &out.Arms[vi*len(arms)+ai]
			for s := 0; s < span; s++ {
				rec := groups[ai*span+s][0][vi]
				if rec.maxJump > AdverseJumpThreshold {
					cell.Jumps++
				}
				if rec.completed {
					cell.Completions++
				}
				cell.Lag.Add(rec.maxLag * 1e3)
				cell.Jump.Add(rec.maxJump * 1e3)
			}
		}
	}
	return out, nil
}

// mergeMitigationPartials combines the partial grids of two adjacent
// attack-index ranges.
func mergeMitigationPartials(a, b MitigationPartial) (MitigationPartial, error) {
	if len(a.Arms) == 0 {
		return b, nil
	}
	if len(b.Arms) == 0 {
		return a, nil
	}
	if len(a.Arms) != len(b.Arms) || len(a.Values) != len(b.Values) {
		return MitigationPartial{}, fmt.Errorf("experiment: mitigation merge: %d/%d vs %d/%d cells/values",
			len(a.Arms), len(a.Values), len(b.Arms), len(b.Values))
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return MitigationPartial{}, fmt.Errorf("experiment: mitigation merge: value %d is %d vs %d", i, a.Values[i], b.Values[i])
		}
	}
	for i := range a.Arms {
		x, y := &a.Arms[i], b.Arms[i]
		x.Attacks += y.Attacks
		x.Jumps += y.Jumps
		x.Completions += y.Completions
		if err := x.Lag.Merge(y.Lag); err != nil {
			return MitigationPartial{}, err
		}
		if err := x.Jump.Merge(y.Jump); err != nil {
			return MitigationPartial{}, err
		}
	}
	return a, nil
}

// FinalizeMitigationSweep renders a full-coverage partial as the per-value
// comparison results.
func FinalizeMitigationSweep(cfg MitigationConfig, p MitigationPartial) ([]MitigationResult, error) {
	cfg.applyDefaults()
	arms := mitigationArms
	if len(p.Arms) != len(p.Values)*len(arms) {
		return nil, fmt.Errorf("experiment: mitigation finalize: %d cells for %d values", len(p.Arms), len(p.Values))
	}
	results := make([]MitigationResult, len(p.Values))
	for vi, v := range p.Values {
		vcfg := cfg
		vcfg.Value = v
		out := MitigationResult{Config: vcfg}
		for ai, armSpec := range arms {
			cell := p.Arms[vi*len(arms)+ai]
			arm := MitigationArm{Name: armSpec.name}
			arm.JumpRate = float64(cell.Jumps) / float64(cell.Attacks)
			arm.CompletionRate = float64(cell.Completions) / float64(cell.Attacks)
			arm.Lag = cell.Lag.Summarize()
			arm.Jump = cell.Jump.Summarize()
			out.Arms = append(out.Arms, arm)
		}
		results[vi] = out
	}
	return results, nil
}

// Write renders the comparison.
func (r MitigationResult) Write(w io.Writer) {
	fmt.Fprintf(w, "MITIGATION COMPARISON (scenario B, value=%d, period=%d ms, %d attacks/arm)\n",
		r.Config.Value, r.Config.Duration, r.Config.Attacks)
	fmt.Fprintf(w, "%-28s %10s %12s %18s %18s\n", "Strategy", "P(jump)", "P(complete)", "jump mean/max mm", "lag mean/max mm")
	for _, arm := range r.Arms {
		fmt.Fprintf(w, "%-28s %10.2f %12.2f %9.2f /%6.2f %9.2f /%6.2f\n",
			arm.Name, arm.JumpRate, arm.CompletionRate,
			arm.Jump.Mean, arm.Jump.Max, arm.Lag.Mean, arm.Lag.Max)
	}
}
