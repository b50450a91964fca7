package fleet

import (
	"ravenguard/internal/sim"
)

// Worker owns one shard of the fleet: a sim.Lockstep holding its sessions'
// rigs, plus the tick-latency histogram. One goroutine owns a Worker;
// shards share nothing, so workers never synchronise inside a tick.
type Worker struct {
	ls    *sim.Lockstep
	clock sim.Clock
	hist  latencyHist
}

// NewWorker builds a worker able to host up to capacity concurrent
// sessions. clock times each tick for the latency SLO (nil selects
// sim.WallClock).
func NewWorker(capacity int, clock sim.Clock) (*Worker, error) {
	ls, err := sim.NewLockstep(capacity)
	if err != nil {
		return nil, err
	}
	if clock == nil {
		clock = sim.WallClock
	}
	return &Worker{ls: ls, clock: clock}, nil
}

// Admit gives the session a resident lane; it joins the lockstep on the
// next tick. The session digest folds every step from then on through a
// rig observer.
func (w *Worker) Admit(s *Session) error {
	if err := w.ls.Admit(s.rig); err != nil {
		return err
	}
	s.rig.Observe(s.Note)
	return nil
}

// Resident returns the number of sessions currently holding lanes.
func (w *Worker) Resident() int { return w.ls.Resident() }

// Tick drives every resident session through one control period (see
// sim.Lockstep.Tick) and records its latency. A steady-state tick — no
// admission, no retirement — does not touch the heap.
//
//ravenlint:noalloc
func (w *Worker) Tick() error {
	if w.ls.Resident() == 0 {
		return nil
	}
	start := w.clock()
	if err := w.ls.Tick(); err != nil {
		return err
	}
	w.hist.record(w.clock() - start)
	return nil
}
