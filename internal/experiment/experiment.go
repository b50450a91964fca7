// Package experiment is the evaluation harness: it reproduces every table
// and figure of the paper's evaluation (see DESIGN.md's experiment index)
// on top of the simulation framework of Figure 7a.
//
// The central primitive is the attack trial: one scripted teleoperation
// session run twice from the same seed — once clean (the reference) and
// once with an attack installed and the dynamic-model guard watching in
// shadow mode — so the adverse physical impact of the attack can be
// measured as the end-effector's deviation from the reference trajectory,
// and both detectors (the paper's dynamic-model guard and RAVEN's built-in
// safety checks) can be scored against that ground truth. The sessions are
// the same physics until the attack fires, so a trial simulates that head
// once and forks the rest (see Trial.Run).
package experiment

import (
	"fmt"
	"math"
	"sync"

	"ravenguard/internal/console"
	"ravenguard/internal/control"
	"ravenguard/internal/core"
	"ravenguard/internal/inject"
	"ravenguard/internal/interpose"
	"ravenguard/internal/mathx"
	"ravenguard/internal/sim"
	"ravenguard/internal/statemachine"
	"ravenguard/internal/trajectory"
	"ravenguard/internal/usb"
)

// AdverseJumpThreshold is the paper's injury criterion from expert
// surgeons: an unintended end-effector displacement of one millimeter.
const AdverseJumpThreshold = 0.001

// Scenario selects the attack family of a trial.
type Scenario int

// Scenarios.
const (
	// ScenarioNone runs fault-free (negative trials for FPR).
	ScenarioNone Scenario = iota + 1
	// ScenarioA injects unintended user inputs.
	ScenarioA
	// ScenarioB injects unintended motor torque commands.
	ScenarioB
)

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case ScenarioNone:
		return "fault-free"
	case ScenarioA:
		return "A (user inputs)"
	case ScenarioB:
		return "B (torque commands)"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// Trial specifies one attack run.
type Trial struct {
	Seed     int64
	TrajIdx  int     // index into trajectory.Standard()
	Teleop   float64 // pedal-down seconds (default 5)
	Scenario Scenario

	// Scenario A parameters.
	A inject.ScenarioAParams
	// Scenario B parameters.
	B inject.ScenarioBParams

	// Thresholds for the dynamic-model guard (zero = DefaultThresholds).
	Thresholds core.Thresholds
	// Integrator for the guard (default "euler").
	Integrator string
	// Resync selects the guard's model-feedback fusion ("proportional" or
	// "kalman"; empty = proportional).
	Resync string
	// Fusion selects the guard's alarm fusion (used by the ablation
	// experiments; zero value keeps the paper's all-three-AND fusion).
	Fusion core.Fusion
	// GuardAboveMalware preloads the guard ABOVE the malicious wrapper
	// instead of appending it at the hardware boundary (placement
	// ablation: the guard then checks commands before the attacker
	// modifies them, reintroducing the TOCTOU gap).
	GuardAboveMalware bool
}

// Result is what one trial produced.
type Result struct {
	// Impact is the ground truth: the attack produced an unintended
	// end-effector jump beyond the 1 mm criterion (measured against the
	// same-seed fault-free reference, up to the moment the system halted).
	Impact bool
	// MaxDeviation is the peak deviation from the reference, meters.
	MaxDeviation float64
	// DynDetected reports the dynamic-model guard alarming.
	DynDetected bool
	// DynPreemptive reports the guard alarming before the impact
	// manifested (first alarm tick <= first tick deviation crossed 1 mm).
	DynPreemptive bool
	// RavenDetected reports RAVEN's built-in checks firing (software DAC/
	// joint-limit check, which also drops the watchdog).
	RavenDetected bool
	// Halted reports the run ending in E-STOP (unwanted halt state).
	Halted bool
	// InjectedFrames is how many cycles the attack actually corrupted.
	InjectedFrames int
	// AlarmTick and ImpactTick are the step indices of first alarm and
	// first >1 mm deviation (-1 when absent).
	AlarmTick  int
	ImpactTick int
}

// script returns the trial's session script.
func (tr Trial) script() console.Script {
	teleop := tr.Teleop
	if teleop == 0 {
		teleop = 5
	}
	return console.StandardScript(teleop)
}

func (tr Trial) trajectory() trajectory.Trajectory {
	std := trajectory.Standard()
	return std[((tr.TrajIdx%len(std))+len(std))%len(std)]
}

// config is the trial's plain session: seed, script and trajectory, no
// attack, no guard, RAVEN's checks active.
func (tr Trial) config() sim.Config {
	return sim.Config{Seed: tr.Seed, Script: tr.script(), Traj: tr.trajectory()}
}

// sessionSteps bounds how many steps the trial's session runs (the step
// clock overshoots the script's end by up to a period, and its rounding
// by up to one more): the capacity of a whole tip trace.
func (tr Trial) sessionSteps() int {
	return int(tr.script().TotalDuration()/control.Period) + 2
}

// refCache memoises fault-free tip traces keyed by (seed, trajIdx, teleop).
type refKey struct {
	seed    int64
	trajIdx int
	teleop  float64
}

func (tr Trial) refKey() refKey { return refKey{tr.Seed, tr.TrajIdx, tr.Teleop} }

type refCache struct {
	mu sync.Mutex
	m  map[refKey][]mathx.Vec3
}

var _refs = &refCache{m: make(map[refKey][]mathx.Vec3)}

// cachedReference returns the trial's fault-free tip trace if one has been
// published.
func (tr Trial) cachedReference() ([]mathx.Vec3, bool) {
	_refs.mu.Lock()
	defer _refs.mu.Unlock()
	trace, ok := _refs.m[tr.refKey()]
	return trace, ok
}

// reference returns (computing if needed) the fault-free tip trace for the
// trial's seed/trajectory/script.
func (tr Trial) reference() ([]mathx.Vec3, error) {
	if trace, ok := tr.cachedReference(); ok {
		return trace, nil
	}
	rig, err := sim.New(tr.config())
	if err != nil {
		return nil, fmt.Errorf("experiment: reference: %w", err)
	}
	trace := make([]mathx.Vec3, 0, tr.sessionSteps())
	if err := runTips(rig, func(p mathx.Vec3) { trace = append(trace, p) }); err != nil {
		return nil, fmt.Errorf("experiment: reference: %w", err)
	}
	storeReference(tr.refKey(), trace)
	return trace, nil
}

// ResetReferenceCache clears the memoised fault-free traces (tests).
func ResetReferenceCache() {
	_refs.mu.Lock()
	_refs.m = make(map[refKey][]mathx.Vec3)
	_refs.mu.Unlock()
}

// storeReference publishes a fault-free tip trace. Forking runners publish
// the one they assembled as a by-product (head tips + forked reference
// tail), so later trials with the same key skip the reference run.
func storeReference(key refKey, trace []mathx.Vec3) {
	_refs.mu.Lock()
	if _, ok := _refs.m[key]; !ok {
		_refs.m[key] = trace
	}
	_refs.mu.Unlock()
}

// attack is what a trial needs of an installed attack instance.
type attack interface {
	// Injected reports how many frames were corrupted.
	Injected() int
	// FramesUntilActive reports how many more triggered frames pass
	// untouched before the first corrupted one.
	FramesUntilActive() int
}

// noAttack is the attack of a fault-free trial: it never fires.
type noAttack struct{}

func (noAttack) Injected() int          { return 0 }
func (noAttack) FramesUntilActive() int { return math.MaxInt }

// installAttack instantiates the trial's attack onto cfg. Each call builds
// a fresh (stateful) attack instance, so the counterfactual and scored
// runs get identical but independent attacks.
func (tr Trial) installAttack(cfg *sim.Config) (attack, error) {
	switch tr.Scenario {
	case ScenarioNone:
		return noAttack{}, nil
	case ScenarioA:
		att, err := inject.NewScenarioA(tr.A)
		if err != nil {
			return nil, err
		}
		cfg.OnInput = att.Hook()
		cfg.Stateful = append(cfg.Stateful, att)
		return att, nil
	case ScenarioB:
		inj, err := inject.NewScenarioB(tr.B)
		if err != nil {
			return nil, err
		}
		cfg.Preload = append(cfg.Preload, inj)
		return inj, nil
	default:
		return nil, fmt.Errorf("experiment: unknown scenario %d", int(tr.Scenario))
	}
}

// runTips runs rig to the end of its session, handing every step's true
// tip to tip.
func runTips(rig *sim.Rig, tip func(mathx.Vec3)) error {
	rig.Observe(func(si sim.StepInfo) { tip(si.TipTrue) })
	_, err := rig.Run(0)
	return err
}

// forkTail builds a rig, restores a session head's snapshot into it and
// runs the rest of the session through runTips. A nil snap means the head
// ran the whole session, so there is no tail to run.
func forkTail(snap *sim.Snapshot, build func() (*sim.Rig, error), tip func(mathx.Vec3)) error {
	if snap == nil {
		return nil
	}
	rig, err := build()
	if err != nil {
		return err
	}
	if err := rig.Restore(*snap); err != nil {
		return err
	}
	return runTips(rig, tip)
}

// deviation scores a tip trace against a reference trace step by step:
// the peak distance and the first step it crossed the 1 mm criterion.
type deviation struct {
	ref        []mathx.Vec3
	max        float64
	impactTick int
	step       int
}

func newDeviation(ref []mathx.Vec3) *deviation { return &deviation{ref: ref, impactTick: -1} }

func (d *deviation) observe(tip mathx.Vec3) {
	if d.step < len(d.ref) {
		dist := tip.DistanceTo(d.ref[d.step])
		if dist > d.max {
			d.max = dist
		}
		if d.impactTick < 0 && dist > AdverseJumpThreshold {
			d.impactTick = d.step
		}
	}
	d.step++
}

// counterfactualRig assembles the trial's unprotected session: a fresh
// attack instance with every safety response disabled (no software checks,
// no guard).
func (tr Trial) counterfactualRig() (*sim.Rig, error) {
	cfg := tr.config()
	cfg.Control.SafetyChecksOff = true
	if _, err := tr.installAttack(&cfg); err != nil {
		return nil, err
	}
	return sim.New(cfg)
}

// counterfactualImpact measures the attack's physical effect with every
// safety response disabled: the ground truth "adverse impact that would
// manifest absent mitigation". It runs the unprotected session from t=0
// and returns the peak deviation from the reference and the tick it first
// crossed the 1 mm criterion (-1 if never).
func (tr Trial) counterfactualImpact(ref []mathx.Vec3) (float64, int, error) {
	rig, err := tr.counterfactualRig()
	if err != nil {
		return 0, -1, err
	}
	dev := newDeviation(ref)
	if err := runTips(rig, dev.observe); err != nil {
		return 0, -1, err
	}
	return dev.max, dev.impactTick, nil
}

// forkMargin is how many triggered frames short of the attack's first
// corrupted frame a trial's shared head stops.
const forkMargin = 2

// Run executes the trial and scores it: the ground truth comes from the
// counterfactual (unprotected) run, the detector verdicts from the scored
// run with RAVEN's checks active and the guard monitoring.
//
// The trial's three sessions (the fault-free reference, the counterfactual
// and the scored run) are the same physics until the attack fires. So one
// head runs on the scored rig, attack installed but dormant, until the
// attack is forkMargin frames from activating or the session ends, and is
// snapshotted there. On a cold reference cache a plain rig forks the
// reference tail off the snapshot and the assembled trace is published.
// Then the scored rig runs its tail, its tips scored against the
// reference as they come.
//
// The scored rig differs from the counterfactual in two ways only: its
// software safety checks are on, and its guard runs in ModeMonitor
// (scoredRig's mode is a precondition of this shortcut). A check acts on
// the session only when it trips, and a monitoring guard never writes the
// frame. So a scored run that trips no check and reaches no PLC E-STOP is
// the counterfactual bit for bit, and its own deviation is the ground
// truth. Only a scored run that did diverge forks the counterfactual tail
// off the snapshot, or runs it whole from t=0 if the divergence was in the
// head. A fault-free trial is a single run: its head is the whole session.
// Results are byte-identical to running the three sessions straight
// through from t=0.
func (tr Trial) Run() (Result, error) {
	rig, guard, att, err := tr.scoredRig()
	if err != nil {
		return Result{}, err
	}
	diverged := func() bool { return rig.Controller().SafetyTrips() > 0 || rig.PLC().EStopped() }
	res := Result{AlarmTick: -1, ImpactTick: -1}
	head := make([]mathx.Vec3, 0, tr.sessionSteps())
	var dev *deviation
	step := 0
	rig.Observe(func(si sim.StepInfo) {
		if res.AlarmTick < 0 && guard.Alarms() > 0 {
			res.AlarmTick = step
		}
		// Head tips wait for the reference; tail tips are scored at once.
		if dev == nil {
			head = append(head, si.TipTrue)
		} else {
			dev.observe(si.TipTrue)
		}
		step++
	})
	for !rig.Done() && att.FramesUntilActive() > forkMargin {
		if _, err := rig.Step(); err != nil {
			return Result{}, err
		}
	}
	var snap *sim.Snapshot
	if !rig.Done() {
		s, err := rig.Snapshot()
		if err != nil {
			return Result{}, err
		}
		snap = &s
	}

	ref, cached := tr.cachedReference()
	if !cached {
		// The dormant head is the reference's head too: the reference is
		// the head tips plus a plain rig's tail from the snapshot.
		ref = head
		plain := func() (*sim.Rig, error) { return sim.New(tr.config()) }
		if err := forkTail(snap, plain, func(p mathx.Vec3) { ref = append(ref, p) }); err != nil {
			return Result{}, fmt.Errorf("experiment: reference: %w", err)
		}
		storeReference(tr.refKey(), ref)
	}

	// headDiverged is read before the tail runs: a head that tripped shares
	// no prefix with the unprotected session.
	headDiverged := diverged()
	seeded := func() *deviation {
		d := newDeviation(ref)
		for _, p := range head {
			d.observe(p)
		}
		return d
	}
	dev = seeded()
	if _, err := rig.Run(0); err != nil {
		return Result{}, err
	}

	if tr.Scenario != ScenarioNone {
		switch {
		case headDiverged:
			res.MaxDeviation, res.ImpactTick, err = tr.counterfactualImpact(ref)
			if err != nil {
				return Result{}, err
			}
		case diverged():
			cf := seeded()
			if err := forkTail(snap, tr.counterfactualRig, cf.observe); err != nil {
				return Result{}, err
			}
			res.MaxDeviation, res.ImpactTick = cf.max, cf.impactTick
		default:
			res.MaxDeviation, res.ImpactTick = dev.max, dev.impactTick
		}
	}
	res.score(rig, guard, att)
	return res, nil
}

// scoredRig assembles the trial's scored session: RAVEN's checks active,
// the attack installed, the dynamic-model guard watching in shadow mode.
func (tr Trial) scoredRig() (*sim.Rig, *core.Guard, attack, error) {
	th := tr.Thresholds
	if th == (core.Thresholds{}) {
		th = core.DefaultThresholds()
	}
	guard, err := core.NewGuard(core.Config{
		Integrator: tr.Integrator,
		Thresholds: th,
		Mode:       core.ModeMonitor,
		Fusion:     tr.Fusion,
		Resync:     tr.Resync,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := tr.config()
	att, err := tr.installAttack(&cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if tr.GuardAboveMalware && tr.Scenario == ScenarioB {
		// Placement ablation: the guard resolves before the malware, so it
		// checks frames before the attacker mutates them (the TOCTOU gap),
		// and taps feedback without being invoked twice per write.
		cfg.Preload = append([]interpose.Wrapper{guard}, cfg.Preload...)
		cfg.Guards = append(cfg.Guards, feedbackOnly{guard})
	} else {
		cfg.Guards = append(cfg.Guards, guard)
	}
	rig, err := sim.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return rig, guard, att, nil
}

// feedbackOnly adapts a guard that is already preloaded on the write chain
// so it can still receive encoder feedback through the Guards list without
// being invoked twice per write.
type feedbackOnly struct {
	g *core.Guard
}

var _ sim.Hook = feedbackOnly{}

func (f feedbackOnly) Name() string { return "guard-feedback-tap" }

func (f feedbackOnly) OnWrite([]byte) interpose.Verdict { return interpose.Pass }

func (f feedbackOnly) OnFeedback(fb usb.Feedback, t float64) { f.g.OnFeedback(fb, t) }

// score fills the verdicts of a finished scored run into res, whose ground
// truth (MaxDeviation, ImpactTick) and AlarmTick are already set.
func (res *Result) score(rig *sim.Rig, guard *core.Guard, att attack) {
	res.Impact = res.ImpactTick >= 0
	res.DynDetected = guard.Alarms() > 0
	// Preemptive: the alarm fires no later than the impact would have
	// manifested in the unprotected system.
	res.DynPreemptive = res.DynDetected && (!res.Impact || (res.AlarmTick >= 0 && res.AlarmTick <= res.ImpactTick))
	res.RavenDetected = rig.Controller().SafetyTrips() > 0
	res.Halted = rig.PLC().EStopped() || rig.Controller().State() == statemachine.EStop
	res.InjectedFrames = att.Injected()
}
