package experiment

import (
	"fmt"

	"ravenguard/internal/console"
	"ravenguard/internal/core"
	"ravenguard/internal/fault"
	"ravenguard/internal/inject"
	"ravenguard/internal/mathx"
	"ravenguard/internal/sim"
	"ravenguard/internal/statemachine"
	"ravenguard/internal/stats"
	"ravenguard/internal/trajectory"
)

// The straight (pre-forking) runners: every session a campaign needs is
// simulated whole from t=0, with no shared head. They are the byte-identity
// oracles of the forking runners' equivalence tests and the "before" side
// of the campaign benchmarks.

// runTrialStraight runs a trial's three sessions straight through: the
// fault-free reference (unless cached), the counterfactual with RAVEN's
// checks off, and the scored run with detector d alone in shadow mode.
func runTrialStraight(tr Trial, d detector) (Result, error) {
	ref, err := tr.reference()
	if err != nil {
		return Result{}, err
	}
	res := Result{AlarmTick: -1, ImpactTick: -1}
	if tr.Scenario != ScenarioNone {
		res.MaxDeviation, res.ImpactTick, err = tr.counterfactualImpact(ref)
		if err != nil {
			return Result{}, err
		}
	}
	rig, guards, att, err := tr.scoredRig([]detector{d})
	if err != nil {
		return Result{}, err
	}
	guard := guards[0]
	step := 0
	rig.Observe(func(sim.StepInfo) {
		if res.AlarmTick < 0 && guard.Alarms() > 0 {
			res.AlarmTick = step
		}
		step++
	})
	if _, err := rig.Run(0); err != nil {
		return Result{}, err
	}
	res.score(rig, guard, att)
	return res, nil
}

// runTrialsStraight runs trials straight with detector d on the campaign
// pool, results in input order.
func runTrialsStraight(trials []Trial, d detector) ([]Result, error) {
	return runJobs(len(trials), func(i int) (Result, error) {
		return runTrialStraight(trials[i], d)
	})
}

// runTable1Straight is the pre-forking implementation: one full attacked
// session plus one full fault-free reference per variant, no shared
// prefix. Kept as the byte-identity oracle and the "before" baseline for
// the campaign benchmarks.
func runTable1Straight(baseSeed int64) (Table1Result, error) {
	variants := inject.AllVariants()
	rows, err := runJobs(len(variants), func(i int) (Table1Row, error) {
		return table1Row(baseSeed, variants[i])
	})
	if err != nil {
		return Table1Result{}, err
	}
	return Table1Result{Rows: rows}, nil
}

// table1Row runs one variant's session and classifies its impact.
func table1Row(baseSeed int64, v inject.Variant) (Table1Row, error) {
	cfg := sim.Config{
		Seed:   baseSeed + int64(v),
		Script: console.StandardScript(6),
		Traj:   trajectory.Standard()[0],
	}
	vc := inject.VariantConfig{Variant: v, StartAt: 4.0, Seed: int64(v)}
	installed, err := vc.Apply(&cfg)
	if err != nil {
		return Table1Row{}, err
	}
	rig, err := sim.New(cfg)
	if err != nil {
		return Table1Row{}, err
	}

	// Reference trace for deviation classification.
	refTrial := Trial{Seed: cfg.Seed, TrajIdx: 0, Teleop: 6}
	ref, err := refTrial.reference()
	if err != nil {
		return Table1Row{}, err
	}

	row := Table1Row{Variant: v, Installed: installed}
	step := 0
	halted := false
	brakedInDown := 0
	rig.Observe(func(si sim.StepInfo) {
		if !halted && step < len(ref) {
			if d := si.TipTrue.DistanceTo(ref[step]); d > row.MaxDevMM/1e3 {
				row.MaxDevMM = d * 1e3
			}
		}
		if si.PLCEStop {
			halted = true
		}
		if si.Ctrl.State == statemachine.PedalDown && rig.PLC().BrakesEngaged() {
			brakedInDown++
		}
		step++
	})
	if _, err := rig.Run(0); err != nil {
		return Table1Row{}, err
	}
	row.FinalState = rig.Controller().State()
	row.IKFails = rig.Controller().IKFails()
	row.SafetyTrips = rig.Controller().SafetyTrips()
	row.PLCEStopped = rig.PLC().EStopped()
	row.Impact = classifyImpact(row, brakedInDown)
	return row, nil
}

// runOne executes one seeded run of kind k under policy pol. A panic
// anywhere in the pipeline is caught and reported as a crashed run.
func (c FaultCampaignConfig) runOne(k fault.Kind, pol GuardPolicy, seedIdx int) (rec faultRun, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec = faultRun{crashed: true}
			err = nil
		}
	}()

	rigSeed := c.BaseSeed + int64(seedIdx)
	ref, err := (Trial{Seed: rigSeed, TrajIdx: 0, Teleop: c.Teleop}).reference()
	if err != nil {
		return rec, err
	}

	cfg := sim.Config{
		Seed:   rigSeed,
		Script: console.StandardScript(c.Teleop),
		Traj:   trajectory.Standard()[0],
	}
	var guard *core.Guard
	if pol != PolicyOff {
		guard, err = core.NewGuard(core.Config{
			Thresholds: core.DefaultThresholds(),
			Mode:       pol.guardMode(),
		})
		if err != nil {
			return rec, err
		}
		cfg.Guards = append(cfg.Guards, guard)
	}
	// Apply after the guard so the write-path faulter lands below it, at
	// the bus.
	inj, err := campaignPlan(k, c.BaseSeed*1000+int64(seedIdx)).Apply(&cfg)
	if err != nil {
		return rec, err
	}
	rig, err := sim.New(cfg)
	if err != nil {
		return rec, err
	}

	halted, step := false, 0
	rig.Observe(func(si sim.StepInfo) {
		if !halted && step < len(ref) {
			if d := si.TipTrue.DistanceTo(ref[step]); d > rec.maxDev {
				rec.maxDev = d
			}
		}
		if si.PLCEStop {
			halted = true
		}
		step++
	})
	if _, err := rig.Run(0); err != nil {
		return rec, err
	}

	rec.applied = inj.Total()
	rec.alarm = guard != nil && guard.Alarms() > 0
	rec.halted = rig.PLC().EStopped() || rig.Controller().State() == statemachine.EStop
	rec.impact = rec.maxDev > AdverseJumpThreshold
	return rec, nil
}

// runFaultCampaignStraight is the pre-forking implementation: every
// (kind, policy, seed) run simulates its full session from t=0. Kept as
// the byte-identity oracle and the "before" baseline for the campaign
// benchmarks.
func runFaultCampaignStraight(c FaultCampaignConfig) (FaultCampaignResult, error) {
	if c.Seeds <= 0 {
		c.Seeds = 3
	}
	if c.Teleop <= 0 {
		c.Teleop = 6
	}
	kinds := c.Kinds
	if len(kinds) == 0 {
		kinds = fault.AllKinds()
	}

	type faultJob struct {
		kind fault.Kind
		pol  GuardPolicy
		seed int
	}
	jobs := make([]faultJob, 0, len(kinds)*len(AllPolicies())*c.Seeds)
	for _, k := range kinds {
		for _, pol := range AllPolicies() {
			for s := 0; s < c.Seeds; s++ {
				jobs = append(jobs, faultJob{k, pol, s})
			}
		}
	}
	recs, err := runJobs(len(jobs), func(i int) (faultRun, error) {
		j := jobs[i]
		rec, err := c.runOne(j.kind, j.pol, j.seed)
		if err != nil {
			return faultRun{}, fmt.Errorf("experiment: fault campaign %v/%v seed %d: %w", j.kind, j.pol, j.seed, err)
		}
		return rec, nil
	})
	if err != nil {
		return FaultCampaignResult{}, err
	}

	var out FaultCampaignResult
	idx := 0
	for range kinds {
		truth := make([]bool, c.Seeds)
		for _, pol := range AllPolicies() {
			cell := FaultCell{Kind: jobs[idx].kind, Policy: pol, Seeds: c.Seeds}
			for s := 0; s < c.Seeds; s++ {
				rec := recs[idx]
				idx++
				if pol == PolicyOff {
					truth[s] = rec.impact
				}
				switch classifyFaultOutcome(rec, truth[s]) {
				case OutcomeCrash:
					cell.Crashes++
				case OutcomeFalseAlarm:
					cell.FalseAlarms++
				case OutcomeEStop:
					cell.EStops++
				case OutcomeMissedImpact:
					cell.Missed++
				case OutcomeRodeThrough:
					cell.RodeThrough++
				}
				if rec.alarm {
					cell.Detected++
				}
				cell.FaultsApplied += rec.applied
				if mm := rec.maxDev * 1e3; mm > cell.MaxDevMM {
					cell.MaxDevMM = mm
				}
				if pol != PolicyOff && !rec.crashed {
					out.Confusion.Observe(truth[s], rec.alarm)
				}
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	return out, nil
}

// runMitigationStraight is the pre-forking mitigation comparison: it
// attacks identical sessions under three regimes — no guard (RAVEN's
// built-in response only), guard with E-STOP mitigation, and guard with
// hold-last-safe mitigation — every (arm, attack) session whole from t=0
// on the worker pool; each arm's statistics reduce in attack order. Kept
// as the byte-identity oracle of RunMitigationSweep and the "before" side
// of its benchmark.
func runMitigationStraight(cfg MitigationConfig) (MitigationResult, error) {
	cfg.applyDefaults()
	out := MitigationResult{Config: cfg}
	arms := protectionArms
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
