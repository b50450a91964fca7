package sim

import (
	"fmt"

	"ravenguard/internal/control"
	"ravenguard/internal/robot"
	"ravenguard/internal/usb"
)

// Lockstep drives a changing set of rigs through control periods
// together: the one lockstep tick engine behind both the multi-tenant
// fleet and the campaign fan-outs. Plants stay resident in the lanes of a
// robot.LaneSet and advance in one fused integration per tick; guards
// check each frame in-line on their rig's write chain, exactly as in
// Rig.Step. Each rig's trajectory is bit-identical to running it alone
// with Rig.Run: the lockstep changes how the plant arithmetic is laid out
// across rigs, not what any rig computes.
//
// All admitted rigs must share one plant sub-step count. A Lockstep is not
// safe for concurrent use: one loop owns it.
type Lockstep struct {
	set  *robot.LaneSet
	rigs []*Rig // by lane, mirrored through lane swaps
	dacs [][usb.NumChannels]int16
}

// NewLockstep builds an engine able to host up to capacity resident rigs.
func NewLockstep(capacity int) (*Lockstep, error) {
	set, err := robot.NewLaneSet(capacity)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	l := &Lockstep{
		set:  set,
		rigs: make([]*Rig, capacity),
		dacs: make([][usb.NumChannels]int16, capacity),
	}
	set.OnSwap = func(a, b int) { l.rigs[a], l.rigs[b] = l.rigs[b], l.rigs[a] }
	return l, nil
}

// Admit gives r a resident lane; its plant joins the lockstep window on
// the next tick.
func (l *Lockstep) Admit(r *Rig) error {
	lane, err := l.set.Admit(r.plant)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	l.rigs[lane] = r
	return nil
}

// Resident returns the number of rigs currently holding lanes.
func (l *Lockstep) Resident() int { return l.set.Resident() }

// Tick advances every resident rig by one control period: all control
// halves (console, transport, feedback, controller, the write chain with
// its in-line guards, PLC supervision), lane reconcile, one fused plant
// integration, all bookkeeping halves (which run the rigs' observers),
// then retirement of rigs whose session ended. A steady-state tick — no
// admission, no retirement — does not touch the heap.
//
//ravenlint:noalloc
func (l *Lockstep) Tick() error {
	n := l.set.Resident()

	// Rigs are independent, so lane order is immaterial.
	for lane := 0; lane < n; lane++ {
		if err := l.rigs[lane].StepControl(); err != nil {
			return err
		}
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
		l.rigs[l.set.Resident()] = nil
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
