package fleet

import (
	"fmt"

	"ravenguard/internal/control"
	"ravenguard/internal/robot"
	"ravenguard/internal/sim"
	"ravenguard/internal/usb"
)

// Worker owns one shard of the fleet: its sessions' rigs, their plants
// resident in the lanes of one robot.LaneSet, and the tick-latency
// histogram. One goroutine owns a Worker; shards share nothing, so workers
// never synchronise inside a tick.
//
// Each rig's trajectory is bit-identical to running it alone with
// Rig.Step: the worker changes how the plant arithmetic is laid out across
// rigs, not what any rig computes. It keeps the split tick because the
// fused plant integration overlaps many plants' friction evaluations,
// where one plant alone is latency-bound on its slowest joint (see
// EXPERIMENTS.md, "Per-rig stepping in the fleet worker").
type Worker struct {
	set   *robot.LaneSet
	rigs  []*sim.Rig // by lane, mirrored through lane swaps
	dacs  [][usb.NumChannels]int16
	clock sim.Clock
	hist  latencyHist
}

// NewWorker builds a worker able to host up to capacity concurrent
// sessions. clock times each tick for the latency SLO (nil selects
// sim.WallClock).
func NewWorker(capacity int, clock sim.Clock) (*Worker, error) {
	set, err := robot.NewLaneSet(capacity)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if clock == nil {
		clock = sim.WallClock
	}
	w := &Worker{
		set:   set,
		rigs:  make([]*sim.Rig, capacity),
		dacs:  make([][usb.NumChannels]int16, capacity),
		clock: clock,
	}
	set.OnSwap = func(a, b int) { w.rigs[a], w.rigs[b] = w.rigs[b], w.rigs[a] }
	return w, nil
}

// Admit gives the session a resident lane; it steps from the next tick on.
// The session digest folds every step from then on through a rig
// observer.
func (w *Worker) Admit(s *Session) error {
	lane, err := w.set.Admit(s.rig.Plant())
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	w.rigs[lane] = s.rig
	s.rig.Observe(s.Note)
	return nil
}

// Resident returns the number of sessions currently holding lanes.
func (w *Worker) Resident() int { return w.set.Resident() }

// Tick advances every resident session by one control period and records
// the tick's latency: all control halves (Rig.StepControl: console,
// transport, feedback, controller, the write chain with its in-line
// guards, PLC supervision), lane reconcile, one fused plant integration,
// all bookkeeping halves (Rig.FinishStep, whose observers fold the
// digests), then retirement of sessions whose script ended. A steady-state
// tick — no admission, no retirement — does not touch the heap.
//
//ravenlint:noalloc
func (w *Worker) Tick() error {
	n := w.set.Resident()
	if n == 0 {
		return nil
	}
	start := w.clock()
	// Rigs are independent, so lane order is immaterial.
	for lane := 0; lane < n; lane++ {
		if err := w.rigs[lane].StepControl(); err != nil {
			return err
		}
	}
	// Brake transitions re-home lanes; reconcile before the DACs are
	// gathered so dacs[i] drives the plant actually in lane i.
	w.set.Reconcile()
	for lane := 0; lane < n; lane++ {
		w.dacs[lane] = w.rigs[lane].Board().DACs()
	}
	w.set.Step(w.dacs, control.Period)
	for lane := 0; lane < n; lane++ {
		w.rigs[lane].FinishStep()
	}

	// Retirement compacts by swapping the last resident lane down, so the
	// cursor re-examines the lane it just filled.
	for lane := 0; lane < w.set.Resident(); {
		if !w.rigs[lane].Done() {
			lane++
			continue
		}
		if _, err := w.set.Retire(lane); err != nil {
			return err
		}
		w.rigs[w.set.Resident()] = nil
	}
	w.hist.record(w.clock() - start)
	return nil
}
