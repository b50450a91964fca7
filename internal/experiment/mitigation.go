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
	// Value/Duration of the scenario-B attack used for the comparison
	// (Value is the sweep's value when it is given none).
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

// protectionArms lists the compared protection regimes, in reporting
// order: the mitigation comparison and the persistence experiment both
// attack one session per arm.
var protectionArms = []struct {
	name string
	mode core.Mode // 0 = no guard
}{
	{"no guard (RAVEN only)", 0},
	{"guard: E-STOP mitigation", core.ModeMitigate},
	{"guard: hold-last-safe", core.ModeHoldSafe},
}

// mitigationPrefixSteps is the sweep's fork point: 3.0 s. The earliest
// scenario-B activation is 500 triggered (pedal-down) frames after the
// pedal drops at ~2.55 s, i.e. ~3.05 s — so at 3.0 s every injector is
// still dormant and the session head is independent of the attack value.
const mitigationPrefixSteps = 3000

// jumpTracker adds the sweep's windowed jump oracle to the deviation
// tracker: the peak change of the deviation vector within
// jumpWindowTicks. It is a plain value like the tracker (its ring copies
// with it).
type jumpTracker struct {
	dev     deviation
	maxJump float64
	ring    [jumpWindowTicks]mathx.Vec3
}

// observe scores one step; it is a sim.Observer.
func (j *jumpTracker) observe(si sim.StepInfo) {
	step := j.dev.step
	v, ok := j.dev.next(si)
	if !ok {
		return
	}
	if step >= jumpWindowTicks {
		if d := v.Sub(j.ring[step%jumpWindowTicks]).Norm(); d > j.maxJump {
			j.maxJump = d
		}
	}
	j.ring[step%jumpWindowTicks] = v
}

// finish runs rig, observed by j, to the end of its session and reads off
// its record.
func (j *jumpTracker) finish(rig *sim.Rig) (mitigationRun, error) {
	if _, err := rig.Run(0); err != nil {
		return mitigationRun{}, err
	}
	return mitigationRun{
		maxLag:    j.dev.max,
		maxJump:   j.maxJump,
		completed: completed(rig),
	}, nil
}

// completed reports whether a finished session completed the procedure:
// neither the PLC nor the control software ended it in E-STOP.
func completed(rig *sim.Rig) bool {
	return !rig.PLC().EStopped() && rig.Controller().State() != statemachine.EStop
}

// attackedSessionRig builds one session rig of the trial with the given
// seed and trajectory index, under a scenario-B injection with params p,
// guarded in the given mode (0 = no guard).
func attackedSessionRig(seed int64, trajIdx int, p inject.ScenarioBParams, mode core.Mode) (*sim.Rig, error) {
	trial := Trial{Seed: seed, TrajIdx: trajIdx}
	simCfg := sim.Config{
		Seed:   trial.Seed,
		Script: trial.script(),
		Traj:   trial.trajectory(),
	}
	inj, err := inject.NewScenarioB(p)
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

// RunMitigationSweep runs the mitigation-strategy comparison for several
// attack values at once, returning one MitigationResult per value (in
// input order). It attacks identical sessions under three regimes: no
// guard (RAVEN's built-in response only), guard with E-STOP mitigation,
// and guard with hold-last-safe mitigation.
//
// The attacked sessions differ across values only in the value the
// injector writes once it activates — and every injector is still dormant
// at mitigationPrefixSteps — so each (arm, attack) pair is one job: it
// simulates the session head once on the first value's rig, runs that rig
// on as the first value's session, and forks one rig per further value
// off the head's snapshot. Results are byte-identical to running every
// session whole from t=0.
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
	arms := protectionArms
	out := MitigationPartial{Values: append([]int16{}, values...)}
	if span == 0 {
		return out, nil
	}
	runs, err := runJobs(len(arms)*span, func(g int) ([]mitigationRun, error) {
		return runMitigationAttack(cfg, values, arms[g/span].mode, lo+g%span)
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
				rec := runs[ai*span+s][vi]
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

// runMitigationAttack runs attack i under one guard mode at every value:
// the session head on values[0]'s rig, which then runs on as that value's
// session, and one fork per further value off the head's snapshot (taken
// only when there is one).
func runMitigationAttack(cfg MitigationConfig, values []int16, mode core.Mode, i int) ([]mitigationRun, error) {
	seed, trajIdx := cfg.BaseSeed+int64(8000+i%37), i%2
	ref, err := (Trial{Seed: seed, TrajIdx: trajIdx}).reference()
	if err != nil {
		return nil, err
	}
	attack := inject.ScenarioBParams{
		Value:           values[0],
		Channel:         i % 3,
		StartDelayTicks: 500 + 53*(i%31),
		ActivationTicks: cfg.Duration,
		Seed:            int64(i),
	}
	rig, err := attackedSessionRig(seed, trajIdx, attack, mode)
	if err != nil {
		return nil, err
	}
	head := jumpTracker{dev: newDeviation(ref)}
	rig.Observe(head.observe)
	if _, err := rig.Run(mitigationPrefixSteps); err != nil {
		return nil, err
	}
	var snap sim.Snapshot
	if len(values) > 1 {
		if snap, err = rig.Snapshot(); err != nil {
			return nil, err
		}
	}
	atFork := head
	runs := make([]mitigationRun, len(values))
	if runs[0], err = head.finish(rig); err != nil {
		return nil, err
	}
	for vi := 1; vi < len(values); vi++ {
		attack.Value = values[vi]
		fork, err := attackedSessionRig(seed, trajIdx, attack, mode)
		if err != nil {
			return nil, err
		}
		if err := fork.Restore(snap); err != nil {
			return nil, err
		}
		jt := atFork
		fork.Observe(jt.observe)
		if runs[vi], err = jt.finish(fork); err != nil {
			return nil, err
		}
	}
	return runs, nil
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
	arms := protectionArms
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
