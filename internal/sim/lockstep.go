package sim

import (
	"fmt"

	"ravenguard/internal/control"
	"ravenguard/internal/dynamics"
	"ravenguard/internal/robot"
	"ravenguard/internal/usb"
)

// BatchPredictor is an optional Hook extension: a guard implementing it can
// defer its one-step model prediction so Lockstep fuses every resident
// guard's prediction into one batch sweep (see core.Guard). While deferred,
// the guard parks each frame that needs a model advance on the
// interposition chain (interpose.Hold) until AbsorbPrediction finishes the
// decision.
type BatchPredictor interface {
	// SchemeRK4 reports whether the guard's model integrates with RK4;
	// only explicit-Euler guards join the sweep.
	SchemeRK4() bool
	SetDeferredPredict(on bool)
	// PredictPending reports whether this period's frame is parked
	// awaiting a batched model advance.
	PredictPending() bool
	// PredictInto packs the pending prediction into lane of bs.
	PredictInto(bs *dynamics.BatchStepper, lane int)
	// AbsorbPrediction reads the advanced lane back and finishes the
	// parked frame's decision.
	AbsorbPrediction(bs *dynamics.BatchStepper, lane int)
}

// Lockstep drives a changing set of rigs through control periods
// together: the one lockstep tick engine behind both the multi-tenant
// fleet and the campaign fan-outs. Plants stay resident in the lanes of a
// robot.LaneSet, and every deferred guard's model prediction joins one
// fused Euler sweep per tick. Each rig's trajectory is bit-identical to
// running it alone with Rig.Run: the lockstep changes how the arithmetic
// is laid out across rigs, not what any rig computes.
//
// All admitted rigs must share one plant sub-step count. A Lockstep is not
// safe for concurrent use: one loop owns it.
type Lockstep struct {
	set  *robot.LaneSet
	rigs []*Rig           // by lane, mirrored through lane swaps
	pred []BatchPredictor // by lane; nil when the rig's guards predict in-line
	dacs [][usb.NumChannels]int16

	// Guard-prediction sweep: lanes are packed fresh every tick (guards
	// with nothing to predict — pedal up, desynced feedback — don't join),
	// so gpend maps packed lane k back to the rig lane it came from.
	gbs   *dynamics.BatchStepper
	gpend []int
}

// NewLockstep builds an engine able to host up to capacity resident rigs.
func NewLockstep(capacity int) (*Lockstep, error) {
	set, err := robot.NewLaneSet(capacity)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	gbs, err := dynamics.NewBatchStepper(capacity)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	l := &Lockstep{
		set:   set,
		rigs:  make([]*Rig, capacity),
		pred:  make([]BatchPredictor, capacity),
		dacs:  make([][usb.NumChannels]int16, capacity),
		gbs:   gbs,
		gpend: make([]int, capacity),
	}
	set.OnSwap = func(a, b int) {
		l.rigs[a], l.rigs[b] = l.rigs[b], l.rigs[a]
		l.pred[a], l.pred[b] = l.pred[b], l.pred[a]
	}
	return l, nil
}

// Admit gives r a resident lane; its plant joins the lockstep window on
// the next tick. The first explicit-Euler BatchPredictor among the rig's
// guards is switched to deferred prediction until the rig retires. An RK4
// guard keeps its scalar in-line prediction, since the sweep integrates
// every packed lane with one scheme.
func (l *Lockstep) Admit(r *Rig) error {
	lane, err := l.set.Admit(r.plant)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	l.rigs[lane] = r
	for _, g := range r.guards {
		if bp, ok := g.(BatchPredictor); ok && !bp.SchemeRK4() {
			bp.SetDeferredPredict(true)
			l.pred[lane] = bp
			break
		}
	}
	return nil
}

// Resident returns the number of rigs currently holding lanes.
func (l *Lockstep) Resident() int { return l.set.Resident() }

// Tick advances every resident rig by one control period: all command
// halves (each deferred guard parks its frame), one fused guard-prediction
// sweep that resumes the parked writes, all supervision halves, lane
// reconcile, one fused plant integration, all bookkeeping halves (which
// run the rigs' observers), then retirement of rigs whose session ended.
// A steady-state tick — no admission, no retirement — does not touch the
// heap.
//
//ravenlint:noalloc
func (l *Lockstep) Tick() error {
	n := l.set.Resident()

	// Command halves: console, transport, feedback, controller, board
	// write. Rigs are independent, so lane order is immaterial.
	for lane := 0; lane < n; lane++ {
		if err := l.rigs[lane].StepCommand(); err != nil {
			return err
		}
	}

	// Fused guard prediction: pack every pending guard's model state into
	// dense lanes, advance them all with one Euler sweep, then absorb each
	// prediction (residual check, fusion, mitigation rewrite) and resume
	// its held write. The batch Euler kernel is lane-equivalent to
	// Stepper.Step (pinned in internal/dynamics), so every decision
	// matches the scalar in-line path.
	np := 0
	for lane := 0; lane < n; lane++ {
		if p := l.pred[lane]; p != nil && p.PredictPending() {
			l.gpend[np] = lane
			np++
		}
	}
	if np > 0 {
		if err := l.gbs.SetLanes(np); err != nil {
			return err
		}
		for k, lane := range l.gpend[:np] {
			l.pred[lane].PredictInto(l.gbs, k)
		}
		l.gbs.StepEulerAll(control.Period)
		for k, lane := range l.gpend[:np] {
			l.pred[lane].AbsorbPrediction(l.gbs, k)
			if err := l.rigs[lane].ResumeWrite(); err != nil {
				return err
			}
		}
	}

	// Supervision halves run after every held frame has reached its
	// board: the frame/supervision order of the scalar StepControl path.
	for lane := 0; lane < n; lane++ {
		l.rigs[lane].StepSupervise()
	}
	// Brake transitions re-home lanes; reconcile before the DACs are
	// gathered so dacs[i] drives the plant actually in lane i.
	l.set.Reconcile()
	for lane := 0; lane < n; lane++ {
		l.dacs[lane] = l.rigs[lane].board.DACs()
	}
	l.set.Step(l.dacs, control.Period)
	for lane := 0; lane < n; lane++ {
		l.rigs[lane].FinishStep()
	}

	// Retirement compacts by swapping the last resident lane down, so the
	// cursor re-examines the lane it just filled.
	for lane := 0; lane < l.set.Resident(); {
		if !l.rigs[lane].Done() {
			lane++
			continue
		}
		if _, err := l.set.Retire(lane); err != nil {
			return err
		}
		last := l.set.Resident()
		if p := l.pred[last]; p != nil {
			p.SetDeferredPredict(false)
		}
		l.rigs[last], l.pred[last] = nil, nil
	}
	return nil
}

// RunLockstep admits every rig whose session is still running and ticks
// them together until all have ended — the campaign fan-out: all variants
// forked from one shared prefix run as one cohort.
func RunLockstep(rigs []*Rig) error {
	if len(rigs) == 0 {
		return nil
	}
	l, err := NewLockstep(len(rigs))
	if err != nil {
		return err
	}
	for _, r := range rigs {
		if !r.Done() {
			if err := l.Admit(r); err != nil {
				return err
			}
		}
	}
	for l.Resident() > 0 {
		if err := l.Tick(); err != nil {
			return err
		}
	}
	return nil
}
