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
	"sync/atomic"

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

// refCache memoises the fault-free tip traces and, under the same lock,
// the homing checkpoints, whose head tips alias those traces.
type refCache struct {
	mu     sync.Mutex
	m      map[refKey][]mathx.Vec3
	homing map[homingKey]*homingCheckpoint
}

var _refs = &refCache{m: make(map[refKey][]mathx.Vec3), homing: make(map[homingKey]*homingCheckpoint)}

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
	if err := runObserved(rig, func(si sim.StepInfo) { trace = append(trace, si.TipTrue) }); err != nil {
		return nil, fmt.Errorf("experiment: reference: %w", err)
	}
	tr.storeReference(trace)
	return trace, nil
}

// ResetReferenceCache clears the memoised fault-free traces and the homing
// checkpoints. Campaign shard workers call it once per chunk, so nothing a
// chunk cached outlives the chunk.
func ResetReferenceCache() {
	_refs.mu.Lock()
	_refs.m = make(map[refKey][]mathx.Vec3)
	_refs.homing = make(map[homingKey]*homingCheckpoint)
	_refs.mu.Unlock()
}

// storeReference publishes the trial's fault-free tip trace, unless one is
// cached already.
func (tr Trial) storeReference(trace []mathx.Vec3) {
	_refs.mu.Lock()
	if _, ok := _refs.m[tr.refKey()]; !ok {
		_refs.m[tr.refKey()] = trace
	}
	_refs.mu.Unlock()
}

// forkReference completes dev, a tracker that observed a session head of
// the trial paused at snap (nil: the head ran the whole session). The head
// must be the fault-free session's own head: attack dormant, nothing
// tripped. The trial's reference is the cached trace, or else the head's
// tips followed by a plain rig's tail forked off snap, published so later
// trials with the same key skip the reference run. dev is then scored
// against it from the first step.
func (tr Trial) forkReference(dev *deviation, snap *sim.Snapshot) ([]mathx.Vec3, error) {
	ref, cached := tr.cachedReference()
	if !cached {
		ref = dev.head
		plain := func() (*sim.Rig, error) { return sim.New(tr.config()) }
		if err := forkTail(snap, plain, func(si sim.StepInfo) { ref = append(ref, si.TipTrue) }); err != nil {
			return nil, fmt.Errorf("experiment: reference: %w", err)
		}
		tr.storeReference(ref)
	}
	dev.setReference(ref)
	return ref, nil
}

// homingKey identifies the trials whose scored sessions are identical up to
// the console's first pedal-down datagram. The seed and the script (a
// function of Teleop) shape the session; the detector set fixes the
// snapshot's layout of guards, which is the same under every scenario. The
// detector set is keyed by identity: a campaign passes one slice to all
// its trials, and a different slice only misses the cache. The trajectory,
// the scenario and the attack's parameters are not in the key: the console
// sends zero deltas until pedal-down, both attacks count only pedal-down
// frames, and a resumed trial's attack keeps its own state.
type homingKey struct {
	seed   int64
	teleop float64
	dets   *detector
}

func (tr Trial) homingKey(dets []detector) homingKey {
	return homingKey{tr.Seed, tr.Teleop, &dets[0]}
}

// homingCheckpoint is a scored session paused after its homing ticks,
// before the console can send the first pedal-down datagram: the rig's
// snapshot, the head deviation tracker and each detector's alarm tick.
// The tracker's head tips alias the key's fault-free reference, whose
// prefix they are, so each seed's homing tips are stored once.
type homingCheckpoint struct {
	snap       sim.Snapshot
	dev        deviation
	alarmTicks []int
	resumes    atomic.Int32 // trials resumed from it
}

// cachedHoming returns the key's published checkpoint, or nil.
func cachedHoming(key homingKey) *homingCheckpoint {
	_refs.mu.Lock()
	defer _refs.mu.Unlock()
	return _refs.homing[key]
}

// storeHoming publishes a checkpoint, unless the key has one already.
func storeHoming(key homingKey, cp *homingCheckpoint) {
	_refs.mu.Lock()
	if _, ok := _refs.homing[key]; !ok {
		_refs.homing[key] = cp
	}
	_refs.mu.Unlock()
}

// newHomingCheckpoint captures a scored rig paused at the end of homing,
// with its head tracker and per-detector results so far.
func newHomingCheckpoint(rig *sim.Rig, dev deviation, results []Result) (*homingCheckpoint, error) {
	snap, err := rig.Snapshot()
	if err != nil {
		return nil, err
	}
	cp := &homingCheckpoint{snap: snap, dev: dev, alarmTicks: make([]int, len(results))}
	for i, r := range results {
		cp.alarmTicks[i] = r.AlarmTick
	}
	return cp, nil
}

// resume restores cp into the fresh scored rig of a trial with cp's key,
// and the trial's head tracker and alarm ticks to cp's. The rig's attack
// keeps its own fresh state: cp's publisher may have had another attack,
// none, or this one with other parameters, and its attack state, though it
// has seen no frame either, is not this trial's (scenario B's carries the
// publisher's injector rng seed).
func (cp *homingCheckpoint) resume(rig *sim.Rig, att attack, dev *deviation, results []Result) error {
	own, _ := att.(sim.Snapshotter)
	if err := rig.RestoreExcept(cp.snap, own); err != nil {
		return err
	}
	head := append(dev.head, cp.dev.head...)
	*dev = cp.dev
	dev.head = head
	for i := range results {
		results[i].AlarmTick = cp.alarmTicks[i]
	}
	cp.resumes.Add(1)
	return nil
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

// runObserved runs rig to the end of its session under obs.
func runObserved(rig *sim.Rig, obs sim.Observer) error {
	rig.Observe(obs)
	_, err := rig.Run(0)
	return err
}

// snapshotHead snapshots a rig paused at a fork point. A nil snapshot means
// the head ran the whole session, so there is no tail to fork.
func snapshotHead(rig *sim.Rig) (*sim.Snapshot, error) {
	if rig.Done() {
		return nil, nil
	}
	snap, err := rig.Snapshot()
	return &snap, err
}

// forkTail builds a rig, restores a session head's snapshot into it and
// runs the rest of the session under obs. A nil snap means the head ran
// the whole session, so there is no tail to run.
func forkTail(snap *sim.Snapshot, build func() (*sim.Rig, error), obs sim.Observer) error {
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
	return runObserved(rig, obs)
}

// deviation scores a session's tips against its same-seed fault-free
// reference step by step: the peak distance and the first step it crossed
// the 1 mm criterion. Scoring stops after the first step with the PLC
// E-STOPped: after a halt the reference keeps moving while the robot is
// frozen, which is divergence, not motion. A tracker is a plain value, so
// a forking campaign copies it at the fork point and every fork scores on
// from there.
//
// A forking trial assembles its reference from its own head, so its
// tracker starts without one (newHeadDeviation): it keeps the tips it
// observes until setReference scores them.
type deviation struct {
	ref        []mathx.Vec3
	head       []mathx.Vec3 // tips observed before ref was set
	max        float64
	impactTick int
	haltTick   int // first step with the PLC E-STOPped, the last one scored (-1: none)
	step       int
}

func newDeviation(ref []mathx.Vec3) deviation {
	return deviation{ref: ref, impactTick: -1, haltTick: -1}
}

// newHeadDeviation returns a tracker whose reference is not known yet,
// with room for a session of steps tips.
func newHeadDeviation(steps int) deviation {
	d := newDeviation(nil)
	d.head = make([]mathx.Vec3, 0, steps)
	return d
}

// observe scores one step; it is a sim.Observer.
func (d *deviation) observe(si sim.StepInfo) { d.next(si) }

// next scores one step and returns its deviation vector; ok is false when
// the step went unscored.
func (d *deviation) next(si sim.StepInfo) (v mathx.Vec3, ok bool) {
	if d.ref == nil {
		d.head = append(d.head, si.TipTrue)
	}
	v, ok = d.score(d.step, si.TipTrue)
	if si.PLCEStop && d.haltTick < 0 {
		d.haltTick = d.step
	}
	d.step++
	return v, ok
}

// setReference scores the head tips observed so far against ref, and
// every later step as it comes.
func (d *deviation) setReference(ref []mathx.Vec3) {
	d.ref = ref
	for i, tip := range d.head {
		d.score(i, tip)
	}
}

// score scores step i's tip unless the session had halted before it or it
// outran the reference.
func (d *deviation) score(i int, tip mathx.Vec3) (v mathx.Vec3, ok bool) {
	if (d.haltTick >= 0 && i > d.haltTick) || i >= len(d.ref) {
		return v, false
	}
	v = tip.Sub(d.ref[i])
	dist := v.Norm()
	if dist > d.max {
		d.max = dist
	}
	if d.impactTick < 0 && dist > AdverseJumpThreshold {
		d.impactTick = i
	}
	return v, true
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
	if err := runObserved(rig, dev.observe); err != nil {
		return 0, -1, err
	}
	return dev.max, dev.impactTick, nil
}

// forkMargin is how many triggered frames short of the attack's first
// corrupted frame a trial's shared head stops.
const forkMargin = 2

// detector is one dynamic-model guard a trial scores: the guard's config
// (its Mode is forced to ModeMonitor; zero Thresholds mean
// DefaultThresholds) and whether it sits above the malicious wrapper
// instead of at the hardware boundary (the placement ablation). The
// above-malware guard is preloaded under every scenario, so a trial's
// snapshot layout does not depend on its attack; it sees other frames
// than the hardware boundary only under scenario B, whose wrapper is on
// the write chain.
type detector struct {
	cfg          core.Config
	aboveMalware bool
}

// paperDetector is the paper's guard alone: Euler model, learned
// thresholds, three-way AND fusion, proportional resync, at the hardware
// boundary.
var paperDetector = []detector{{}}

// newGuard builds the detector's monitor-mode guard.
func (d detector) newGuard() (*core.Guard, error) {
	cfg := d.cfg
	cfg.Mode = core.ModeMonitor
	if cfg.Thresholds == (core.Thresholds{}) {
		cfg.Thresholds = core.DefaultThresholds()
	}
	return core.NewGuard(cfg)
}

// Run executes the trial and scores the paper's guard: the ground truth
// comes from the counterfactual (unprotected) run, the detector verdicts
// from the scored run with RAVEN's checks active and the guard monitoring.
func (tr Trial) Run() (Result, error) {
	res, _, err := tr.run(paperDetector)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// run executes the trial once with every detector in dets riding along on
// the scored rig, and returns one Result per detector and the step of the
// scored rig's first corrupted frame (-1: none). A monitor-mode
// guard never writes the frame, so the detectors cannot change the session
// or each other: the ground-truth fields are shared, and each Result is
// what a run with that detector alone would have scored.
//
// The trial's three sessions (the fault-free reference, the counterfactual
// and the scored run) are the same physics until the attack fires. So one
// head runs on the scored rig, attack installed but dormant, until the
// attack is forkMargin frames from activating or the session ends, and is
// snapshotted there. The head's first stretch, start-up and homing up to
// the console's first pedal-down datagram, is the same for every trial of
// a homing key: the first such trial publishes a checkpoint there, and
// the others restore it and run only the rest of the head. On a cold
// reference cache a plain rig forks the
// reference tail off the snapshot and the assembled trace is published.
// Then the scored rig runs its tail, its tips scored against the
// reference as they come.
//
// The scored rig differs from the counterfactual in its software safety
// checks only, since its guards only monitor. A check acts on the session
// only when it trips, so a scored run that trips no check and reaches no
// PLC E-STOP is the counterfactual bit for bit, and its own deviation is
// the ground truth. Only a scored run that did diverge forks the
// counterfactual tail off the snapshot, or runs it whole from t=0 if the
// divergence was in the head. A fault-free trial is a single run: its head
// is the whole session. Results are byte-identical to running the three
// sessions straight through from t=0.
func (tr Trial) run(dets []detector) ([]Result, int, error) {
	rig, guards, att, err := tr.scoredRig(dets)
	if err != nil {
		return nil, -1, err
	}
	diverged := func() bool { return rig.Controller().SafetyTrips() > 0 || rig.PLC().EStopped() }
	results := make([]Result, len(guards))
	for i := range results {
		results[i].AlarmTick = -1
	}
	injectTick := -1
	dev := newHeadDeviation(tr.sessionSteps())
	rig.Observe(func(si sim.StepInfo) {
		if injectTick < 0 && att.Injected() > 0 {
			injectTick = dev.step
		}
		for i, g := range guards {
			if results[i].AlarmTick < 0 && g.Alarms() > 0 {
				results[i].AlarmTick = dev.step
			}
		}
		dev.observe(si)
	})

	// An attack counts pedal-down frames only, so a head that runs past
	// homing has its attack untouched there. Resume such a head from its
	// key's checkpoint, or run homing and keep a checkpoint to publish
	// once the reference it aliases is known.
	key := tr.homingKey(dets)
	var homed *homingCheckpoint
	if att.FramesUntilActive() > forkMargin {
		if cp := cachedHoming(key); cp != nil {
			if err := cp.resume(rig, att, &dev, results); err != nil {
				return nil, -1, err
			}
		} else {
			homing := tr.script().HomingTicks(control.Period)
			for !rig.Done() && dev.step < homing {
				if _, err := rig.Step(); err != nil {
					return nil, -1, err
				}
			}
			// A head that tripped during homing is no prefix of the
			// fault-free session, so it could not alias the reference.
			if !rig.Done() && !diverged() {
				if homed, err = newHomingCheckpoint(rig, dev, results); err != nil {
					return nil, -1, err
				}
			}
		}
	}
	for !rig.Done() && att.FramesUntilActive() > forkMargin {
		if _, err := rig.Step(); err != nil {
			return nil, -1, err
		}
	}
	snap, err := snapshotHead(rig)
	if err != nil {
		return nil, -1, err
	}
	ref, err := tr.forkReference(&dev, snap)
	if err != nil {
		return nil, -1, err
	}
	if homed != nil {
		n := len(homed.dev.head)
		homed.dev.head = ref[:n:n]
		storeHoming(key, homed)
	}

	// headDiverged is read before the tail runs: a head that tripped shares
	// no prefix with the unprotected session.
	headDiverged := diverged()
	atFork := dev
	if _, err := rig.Run(0); err != nil {
		return nil, -1, err
	}

	maxDev, impactTick := 0.0, -1
	if tr.Scenario != ScenarioNone {
		switch {
		case headDiverged:
			maxDev, impactTick, err = tr.counterfactualImpact(ref)
			if err != nil {
				return nil, -1, err
			}
		case diverged():
			cf := atFork
			if err := forkTail(snap, tr.counterfactualRig, cf.observe); err != nil {
				return nil, -1, err
			}
			maxDev, impactTick = cf.max, cf.impactTick
		default:
			maxDev, impactTick = dev.max, dev.impactTick
		}
	}
	for i, g := range guards {
		results[i].MaxDeviation, results[i].ImpactTick = maxDev, impactTick
		results[i].score(rig, g, att)
	}
	return results, injectTick, nil
}

// scoredRig assembles the trial's scored session: RAVEN's checks active,
// the attack installed, one monitor-mode guard per detector in dets order.
func (tr Trial) scoredRig(dets []detector) (*sim.Rig, []*core.Guard, attack, error) {
	cfg := tr.config()
	att, err := tr.installAttack(&cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	guards := make([]*core.Guard, len(dets))
	for i, d := range dets {
		if guards[i], err = d.newGuard(); err != nil {
			return nil, nil, nil, err
		}
		if d.aboveMalware {
			// Placement ablation: the guard resolves before the malware, so
			// it checks frames before the attacker mutates them (the TOCTOU
			// gap), and taps feedback without being invoked twice per write.
			cfg.Preload = append([]interpose.Wrapper{guards[i]}, cfg.Preload...)
			cfg.Guards = append(cfg.Guards, feedbackOnly{guards[i]})
		} else {
			cfg.Guards = append(cfg.Guards, guards[i])
		}
	}
	rig, err := sim.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return rig, guards, att, nil
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
