package experiment

import (
	"fmt"
	"io"

	"ravenguard/internal/console"
	"ravenguard/internal/control"
	"ravenguard/internal/core"
	"ravenguard/internal/fault"
	"ravenguard/internal/mathx"
	"ravenguard/internal/metrics"
	"ravenguard/internal/sim"
	"ravenguard/internal/statemachine"
	"ravenguard/internal/trajectory"
)

// GuardPolicy is the guard-mode axis of the fault campaign.
type GuardPolicy int

// Guard policies.
const (
	// PolicyOff runs without the dynamic-model guard (RAVEN's built-in
	// checks and the PLC watchdog stay active). Its runs establish the
	// per-fault ground truth for the guarded cells.
	PolicyOff GuardPolicy = iota + 1
	// PolicyMonitor runs the guard in shadow mode.
	PolicyMonitor
	// PolicyMitigate lets the guard neutralise frames and force E-STOP.
	PolicyMitigate
	// PolicyHoldSafe lets the guard hold the last safe command instead.
	PolicyHoldSafe
)

// String names the policy.
func (p GuardPolicy) String() string {
	switch p {
	case PolicyOff:
		return "off"
	case PolicyMonitor:
		return "monitor"
	case PolicyMitigate:
		return "mitigate"
	case PolicyHoldSafe:
		return "holdsafe"
	default:
		return fmt.Sprintf("GuardPolicy(%d)", int(p))
	}
}

func (p GuardPolicy) guardMode() core.Mode {
	switch p {
	case PolicyMitigate:
		return core.ModeMitigate
	case PolicyHoldSafe:
		return core.ModeHoldSafe
	default:
		return core.ModeMonitor
	}
}

// AllPolicies lists the campaign's guard policies, ground-truth runs first.
func AllPolicies() []GuardPolicy {
	return []GuardPolicy{PolicyOff, PolicyMonitor, PolicyMitigate, PolicyHoldSafe}
}

// FaultOutcome classifies how one faulted run ended.
type FaultOutcome int

// Fault outcomes, in classification precedence order.
const (
	// OutcomeCrash means the run panicked — the robustness failure the
	// campaign exists to prove absent.
	OutcomeCrash FaultOutcome = iota + 1
	// OutcomeFalseAlarm means the guard alarmed although the fault caused
	// no adverse impact in the unguarded run.
	OutcomeFalseAlarm
	// OutcomeEStop means the run ended halted (guard mitigation, RAVEN
	// checks or the PLC watchdog) — a safe, if disruptive, end state.
	OutcomeEStop
	// OutcomeMissedImpact means the fault caused an adverse impact and
	// nothing alarmed or halted.
	OutcomeMissedImpact
	// OutcomeRodeThrough means the system absorbed the fault: no crash,
	// no halt, no false alarm, no unhandled impact.
	OutcomeRodeThrough
)

// String names the outcome.
func (o FaultOutcome) String() string {
	switch o {
	case OutcomeCrash:
		return "crash"
	case OutcomeFalseAlarm:
		return "false-alarm"
	case OutcomeEStop:
		return "e-stop"
	case OutcomeMissedImpact:
		return "missed-impact"
	case OutcomeRodeThrough:
		return "rode-through"
	default:
		return fmt.Sprintf("FaultOutcome(%d)", int(o))
	}
}

// FaultCampaignConfig sizes the fault-kind × guard-policy matrix.
type FaultCampaignConfig struct {
	// BaseSeed seeds the rigs (run i uses BaseSeed+i) and the fault plans.
	BaseSeed int64
	// Seeds is the number of seeded runs per cell (default 3).
	Seeds int
	// Teleop is the pedal-down duration per run in seconds (default 6).
	Teleop float64
	// Kinds restricts the fault kinds exercised (default fault.AllKinds()).
	Kinds []fault.Kind
}

// FaultCell aggregates the seeded runs of one fault kind under one guard
// policy.
type FaultCell struct {
	Kind   fault.Kind
	Policy GuardPolicy
	Seeds  int

	// Outcome counts across the cell's seeds.
	Crashes, FalseAlarms, EStops, Missed, RodeThrough int
	// Detected counts runs in which the guard alarmed (useful under
	// PolicyMonitor, where a correct detection still ends rode-through).
	Detected int
	// FaultsApplied sums the injector counters: how many fault actions
	// actually fired across the cell's runs.
	FaultsApplied int
	// MaxDevMM is the peak deviation from the fault-free reference across
	// the cell's runs, millimeters, measured up to the first halt.
	MaxDevMM float64
}

// Outcomes renders the cell's outcome counts compactly.
func (c FaultCell) Outcomes() string {
	s := ""
	add := func(n int, label string) {
		if n == 0 {
			return
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%d×%s", n, label)
	}
	add(c.Crashes, OutcomeCrash.String())
	add(c.FalseAlarms, OutcomeFalseAlarm.String())
	add(c.EStops, OutcomeEStop.String())
	add(c.Missed, OutcomeMissedImpact.String())
	add(c.RodeThrough, OutcomeRodeThrough.String())
	if s == "" {
		return "-"
	}
	return s
}

// FaultCampaignResult is the full matrix plus the guard's detection score.
type FaultCampaignResult struct {
	Cells []FaultCell
	// Confusion scores the guard across every guarded, non-crashed run:
	// truth is the adverse impact observed in the same fault's unguarded
	// run, the prediction is the guard alarming.
	Confusion metrics.Confusion
}

// faultRun is what one seeded run produced.
type faultRun struct {
	crashed bool
	alarm   bool
	halted  bool
	impact  bool
	maxDev  float64
	applied int
}

// campaignFaultAt is when the fault window opens: mid-teleoperation, after
// homing (console.StandardScript starts pedal-down around t=2.6 s).
const campaignFaultAt = 3.5

// campaignPlan schedules one representative event for kind k. The window
// sits inside the teleoperation segment even at the quick campaign's
// shortest session.
func campaignPlan(k fault.Kind, seed int64) fault.Plan {
	e := fault.Event{At: campaignFaultAt, Duration: 1.0, Kind: k}
	switch k {
	case fault.KindPacketLoss:
		// A total loss burst; short enough that the stale-input hold
		// carries the arm through.
		e.Duration = 0.6
	case fault.KindFrameTruncate:
		// Partial truncation so most frames still reach the board and the
		// watchdog keeps getting petted.
		e.Params.Rate = 0.2
	case fault.KindStuckDAC, fault.KindEncoderStuck:
		e.Params.Channel = 0
		e.Duration = 0.6
	case fault.KindEncoderDropout:
		// Half the feedback frames become undecodable.
		e.Params.Rate = 0.5
	case fault.KindBoardStall:
		// Long enough to starve the 50 ms watchdog many times over.
		e.Duration = 0.4
	}
	return fault.Plan{Seed: seed, Events: []fault.Event{e}}
}

// classifyFaultOutcome maps one run to its outcome. truthImpact is the
// adverse impact the same fault caused in the unguarded run.
func classifyFaultOutcome(rec faultRun, truthImpact bool) FaultOutcome {
	switch {
	case rec.crashed:
		return OutcomeCrash
	case rec.alarm && !truthImpact:
		return OutcomeFalseAlarm
	case rec.halted:
		return OutcomeEStop
	case truthImpact && !rec.alarm:
		return OutcomeMissedImpact
	default:
		return OutcomeRodeThrough
	}
}

// applyDefaults fills the campaign's default sizing in place.
func (c *FaultCampaignConfig) applyDefaults() {
	if c.Seeds <= 0 {
		c.Seeds = 3
	}
	if c.Teleop <= 0 {
		c.Teleop = 6
	}
	if len(c.Kinds) == 0 {
		c.Kinds = fault.AllKinds()
	}
}

// RunFaultCampaign executes the fault-kind × guard-policy matrix.
//
// The matrix is run on the two-level plan: one group per (policy, seed)
// cell column. Its prefix job simulates the session head once under a
// dormant UNION of every kind's fault plan (no event opens before
// campaignFaultAt, and dormant faulters are behavioral identities, so the
// head is the same physics every kind would have computed) and snapshots
// it at the fork point. The fan job then forks the snapshot into one rig
// per fault kind — each with only its own kind's plan, which restores
// cleanly because per-boundary fault rng streams derive from Plan.Seed
// alone — and steps them together through the structure-of-arrays batch
// stepper. Classification walks the records single-threaded in the fixed
// legacy matrix order, so the same configuration reproduces the identical
// matrix at any worker count, byte-for-byte equal to running every cell
// straight through.
func RunFaultCampaign(c FaultCampaignConfig) (FaultCampaignResult, error) {
	c.applyDefaults()
	return RunFaultCampaignRange(c, 0, c.Seeds)
}

// RunFaultCampaignRange runs the matrix restricted to the seed indices
// [lo, hi) — the campaign's shardable job space. Each seed's column covers
// every policy (the PolicyOff ground truth a seed's guarded runs classify
// against is computed in the same range), so per-seed sub-matrices merge
// exactly: counters add, deviation maxima max, and the merged result of
// any contiguous partition of [0, Seeds) is byte-identical to the
// single-range run.
func RunFaultCampaignRange(c FaultCampaignConfig, lo, hi int) (FaultCampaignResult, error) {
	c.applyDefaults()
	if lo < 0 || hi > c.Seeds || lo > hi {
		return FaultCampaignResult{}, fmt.Errorf("experiment: fault campaign range %d:%d outside [0,%d)", lo, hi, c.Seeds)
	}
	span := hi - lo
	kinds := c.Kinds
	policies := AllPolicies()
	if span == 0 {
		return FaultCampaignResult{}, nil
	}

	groups, err := runGroups(len(policies)*span,
		func(g int) (fcPrefix, error) {
			return c.campaignPrefix(kinds, policies[g/span], lo+g%span)
		},
		func(int) int { return 1 },
		func(g, _ int, p fcPrefix) ([]faultRun, error) {
			recs, err := c.campaignFan(kinds, p)
			if err != nil {
				return nil, fmt.Errorf("experiment: fault campaign %v seed %d: %w", p.pol, p.seedIdx, err)
			}
			return recs, nil
		})
	if err != nil {
		return FaultCampaignResult{}, err
	}

	// Reduce in the legacy kind-major matrix order.
	var out FaultCampaignResult
	for ki, k := range kinds {
		truth := make([]bool, span)
		for pi, pol := range policies {
			cell := FaultCell{Kind: k, Policy: pol, Seeds: span}
			for s := 0; s < span; s++ {
				rec := groups[pi*span+s][0][ki]
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

// fcPrefix is the shared product of one (policy, seed) group's prefix job:
// the fork-point snapshot plus the observer state every kind's
// continuation starts from.
type fcPrefix struct {
	crashed bool // the shared head panicked: every kind's run crashes
	pol     GuardPolicy
	seedIdx int
	snap    sim.Snapshot
	ref     []mathx.Vec3

	// Observer state at the fork point (identical for every kind, since
	// the head is fault-free physics).
	maxDev float64
	halted bool
	step   int
}

// campaignPrefixSteps is the fork point: the last step at which every
// scheduled fault is still provably dormant (two steps of margin before
// the campaignFaultAt window opens).
func campaignPrefixSteps() int {
	return int(campaignFaultAt/control.Period) - 2
}

// campaignPrefix simulates one (policy, seed) group's shared session head
// under the dormant union plan and snapshots it. A panic means every run
// of the group crashes (each kind would have computed the same head).
func (c FaultCampaignConfig) campaignPrefix(kinds []fault.Kind, pol GuardPolicy, seedIdx int) (out fcPrefix, err error) {
	out = fcPrefix{pol: pol, seedIdx: seedIdx}
	defer func() {
		if r := recover(); r != nil {
			out = fcPrefix{crashed: true, pol: pol, seedIdx: seedIdx}
			err = nil
		}
	}()

	rigSeed := c.BaseSeed + int64(seedIdx)
	out.ref, err = (Trial{Seed: rigSeed, TrajIdx: 0, Teleop: c.Teleop}).reference()
	if err != nil {
		return out, err
	}

	union := fault.Plan{Seed: c.BaseSeed*1000 + int64(seedIdx)}
	for _, k := range kinds {
		union.Events = append(union.Events, campaignPlan(k, union.Seed).Events...)
	}
	rig, _, _, err := c.campaignRig(union, pol, seedIdx)
	if err != nil {
		return out, err
	}
	ref := out.ref
	rig.Observe(func(si sim.StepInfo) {
		if !out.halted && out.step < len(ref) {
			if d := si.TipTrue.DistanceTo(ref[out.step]); d > out.maxDev {
				out.maxDev = d
			}
		}
		if si.PLCEStop {
			out.halted = true
		}
		out.step++
	})
	if _, err := rig.Run(campaignPrefixSteps()); err != nil {
		return out, err
	}
	out.snap, err = rig.Snapshot()
	return out, err
}

// campaignRig builds one campaign rig: guard per policy (applied first, so
// the write-path faulter lands below it at the bus), then the fault plan.
func (c FaultCampaignConfig) campaignRig(plan fault.Plan, pol GuardPolicy, seedIdx int) (*sim.Rig, *core.Guard, *fault.Injector, error) {
	cfg := sim.Config{
		Seed:   c.BaseSeed + int64(seedIdx),
		Script: console.StandardScript(c.Teleop),
		Traj:   trajectory.Standard()[0],
	}
	var guard *core.Guard
	if pol != PolicyOff {
		var err error
		guard, err = core.NewGuard(core.Config{
			Thresholds: core.DefaultThresholds(),
			Mode:       pol.guardMode(),
		})
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.Guards = append(cfg.Guards, guard)
	}
	inj, err := plan.Apply(&cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	rig, err := sim.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return rig, guard, inj, nil
}

// campaignFan forks one group's snapshot into a rig per fault kind and
// runs each kind's continuation to the end of its session.
func (c FaultCampaignConfig) campaignFan(kinds []fault.Kind, p fcPrefix) ([]faultRun, error) {
	recs := make([]faultRun, len(kinds))
	for i, k := range kinds {
		if p.crashed {
			recs[i] = faultRun{crashed: true}
			continue
		}
		var err error
		if recs[i], err = c.fanOne(k, p); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// fanContinue restores one kind's rig from the group snapshot and attaches
// the continuation observer (seeded with the carried prefix state).
func (c FaultCampaignConfig) fanContinue(k fault.Kind, p fcPrefix, rec *faultRun) (*sim.Rig, func(), error) {
	plan := campaignPlan(k, c.BaseSeed*1000+int64(p.seedIdx))
	rig, guard, inj, err := c.campaignRig(plan, p.pol, p.seedIdx)
	if err != nil {
		return nil, nil, err
	}
	if err := rig.Restore(p.snap); err != nil {
		return nil, nil, err
	}
	rec.maxDev = p.maxDev
	halted, step, ref := p.halted, p.step, p.ref
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
	finish := func() {
		rec.applied = inj.Total()
		rec.alarm = guard != nil && guard.Alarms() > 0
		rec.halted = rig.PLC().EStopped() || rig.Controller().State() == statemachine.EStop
		rec.impact = rec.maxDev > AdverseJumpThreshold
	}
	return rig, finish, nil
}

// fanOne runs one kind's continuation alone. Construction and step errors
// propagate; a panic marks only this kind's run as crashed.
func (c FaultCampaignConfig) fanOne(k fault.Kind, p fcPrefix) (rec faultRun, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec, err = faultRun{crashed: true}, nil
		}
	}()
	rig, finish, err := c.fanContinue(k, p, &rec)
	if err != nil {
		return faultRun{}, err
	}
	if _, err := rig.Run(0); err != nil {
		return faultRun{}, err
	}
	finish()
	return rec, nil
}

// mergeFaultCampaignResults combines the partial matrices of two adjacent
// seed ranges: outcome counters add, deviation maxima max, confusion cells
// add — all exact operations, so the merge is bit-identical to having run
// the union range in one piece.
func mergeFaultCampaignResults(a, b FaultCampaignResult) (FaultCampaignResult, error) {
	if len(a.Cells) == 0 {
		return b, nil
	}
	if len(b.Cells) == 0 {
		return a, nil
	}
	if len(a.Cells) != len(b.Cells) {
		return FaultCampaignResult{}, fmt.Errorf("experiment: fault campaign merge: %d vs %d cells", len(a.Cells), len(b.Cells))
	}
	out := FaultCampaignResult{Cells: make([]FaultCell, len(a.Cells))}
	for i := range a.Cells {
		x, y := a.Cells[i], b.Cells[i]
		if x.Kind != y.Kind || x.Policy != y.Policy {
			return FaultCampaignResult{}, fmt.Errorf("experiment: fault campaign merge: cell %d is %v/%v vs %v/%v",
				i, x.Kind, x.Policy, y.Kind, y.Policy)
		}
		x.Seeds += y.Seeds
		x.Crashes += y.Crashes
		x.FalseAlarms += y.FalseAlarms
		x.EStops += y.EStops
		x.Missed += y.Missed
		x.RodeThrough += y.RodeThrough
		x.Detected += y.Detected
		x.FaultsApplied += y.FaultsApplied
		if y.MaxDevMM > x.MaxDevMM {
			x.MaxDevMM = y.MaxDevMM
		}
		out.Cells[i] = x
	}
	out.Confusion = a.Confusion
	out.Confusion.Merge(b.Confusion)
	return out, nil
}

// Crashes returns the total crash-outcome count across the matrix.
func (r FaultCampaignResult) Crashes() int {
	n := 0
	for _, c := range r.Cells {
		n += c.Crashes
	}
	return n
}

// KindsExercised reports whether every campaigned kind fired at least one
// fault action in at least one cell.
func (r FaultCampaignResult) KindsExercised() bool {
	fired := map[fault.Kind]bool{}
	scheduled := map[fault.Kind]bool{}
	for _, c := range r.Cells {
		scheduled[c.Kind] = true
		if c.FaultsApplied > 0 {
			fired[c.Kind] = true
		}
	}
	// fired is a subset of scheduled (both are keyed by cell kind), so
	// full coverage is a size comparison — no map iteration whose order
	// could leak into the result.
	return len(fired) == len(scheduled)
}

// Write renders the matrix.
func (r FaultCampaignResult) Write(w io.Writer) {
	fmt.Fprintln(w, "FAULT CAMPAIGN. Accidental-fault kinds × guard policies (seeded runs per cell)")
	fmt.Fprintf(w, "%-36s %-9s %-36s %8s %7s %10s\n", "Fault kind", "Guard", "Outcomes", "Detected", "Faults", "MaxDev(mm)")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-36s %-9s %-36s %8d %7d %10.2f\n",
			c.Kind, c.Policy, c.Outcomes(), c.Detected, c.FaultsApplied, c.MaxDevMM)
	}
	fmt.Fprintf(w, "Guarded-run detection vs unguarded impact: TP=%d FP=%d TN=%d FN=%d (acc %.1f%%, TPR %.1f%%, FPR %.1f%%)\n",
		r.Confusion.TP, r.Confusion.FP, r.Confusion.TN, r.Confusion.FN,
		r.Confusion.Accuracy(), r.Confusion.TPR(), r.Confusion.FPR())
	fmt.Fprintf(w, "Crash outcomes: %d; every fault kind exercised: %v\n", r.Crashes(), r.KindsExercised())
}
