package sim

import (
	"fmt"

	"ravenguard/internal/console"
	"ravenguard/internal/control"
	"ravenguard/internal/interpose"
	"ravenguard/internal/itp"
	"ravenguard/internal/plc"
	"ravenguard/internal/robot"
	"ravenguard/internal/usb"
)

// Snapshotter is implemented by stateful pipeline components the rig cannot
// see through its own fields: chain wrappers (malware, fault injectors, the
// guard) and closure-installed hooks (transport faulters, input injectors).
// A component's snapshot must cover everything that evolves during
// simulation — counters, latches, queues, rng positions — so that restoring
// it and re-running produces the bit-identical continuation. Configuration
// (schedules, gains, seeds-as-identity) stays with the component.
type Snapshotter interface {
	// Name identifies the component; components of the same name are
	// matched between capture and restore by occurrence order.
	Name() string
	// CaptureSnap returns a self-contained copy of the mutable state.
	CaptureSnap() any
	// RestoreSnap rewinds the component to a previously captured state.
	RestoreSnap(st any) error
}

// Snapshot is the complete reproducible state of a Rig at a step boundary.
// Restoring it — into the same rig, or into a freshly built rig whose
// stateful components are a subset of the captured one's — continues the
// run bit-identically to the run the snapshot was taken from.
type Snapshot struct {
	T       float64
	LastIn  control.Input
	LastFb  usb.Feedback
	FbDrops int
	Steps   int

	Console      console.State
	Pending      []itp.Packet // datagrams queued on the built-in transport
	ChainWrites  int
	ChainDropped int
	Board        usb.State
	PLC          plc.State
	Plant        robot.State
	Ctrl         control.State

	// Named holds the states of every Snapshotter component, keyed by
	// "name#occurrence".
	Named map[string]any
}

// snapshotters walks the rig's Snapshotter components in a deterministic
// order: chain wrappers top-down, then the Config.Stateful extras. Keys are
// name plus per-name occurrence index, so duplicate wrappers stay distinct.
func (r *Rig) snapshotters(f func(key string, s Snapshotter)) {
	seen := map[string]int{}
	visit := func(s Snapshotter) {
		name := s.Name()
		key := fmt.Sprintf("%s#%d", name, seen[name])
		seen[name]++
		f(key, s)
	}
	r.chain.Each(func(w interpose.Wrapper) {
		if s, ok := w.(Snapshotter); ok {
			visit(s)
		}
	})
	for _, s := range r.cfg.Stateful {
		visit(s)
	}
}

// Snapshot captures the rig's complete state. Only rigs driven by the
// built-in console support snapshots (externally driven rigs have
// un-capturable network state).
func (r *Rig) Snapshot() (Snapshot, error) {
	if r.cons == nil {
		return Snapshot{}, fmt.Errorf("sim: snapshot of externally driven rig")
	}
	writes, dropped := r.chain.Stats()
	s := Snapshot{
		T:       r.t,
		LastIn:  r.lastIn,
		LastFb:  r.lastFb,
		FbDrops: r.fbDrops,
		Steps:   r.steps,

		Console:      r.cons.CaptureState(),
		Pending:      r.mem.PendingPackets(),
		ChainWrites:  writes,
		ChainDropped: dropped,
		Board:        r.board.CaptureState(),
		PLC:          r.plc.CaptureState(),
		Plant:        r.plant.CaptureState(),
		Ctrl:         r.ctrl.CaptureState(),

		Named: map[string]any{},
	}
	r.snapshotters(func(key string, sn Snapshotter) {
		s.Named[key] = sn.CaptureSnap()
	})
	return s, nil
}

// Restore rewinds the rig to a snapshot. Every Snapshotter component of
// THIS rig must find its state in the snapshot; extra snapshot entries are
// ignored, so a snapshot taken from a rig with more stateful components
// (e.g. an attacked run) restores cleanly into a leaner fork (e.g. its
// clean reference) — legitimate because dormant and absent components alike
// have touched nothing and drawn no randomness.
func (r *Rig) Restore(s Snapshot) error {
	if r.cons == nil {
		return fmt.Errorf("sim: restore of externally driven rig")
	}
	var restoreErr error
	r.snapshotters(func(key string, sn Snapshotter) {
		if restoreErr != nil {
			return
		}
		st, ok := s.Named[key]
		if !ok {
			restoreErr = fmt.Errorf("sim: snapshot has no state for component %q", key)
			return
		}
		if err := sn.RestoreSnap(st); err != nil {
			restoreErr = fmt.Errorf("sim: restore %q: %w", key, err)
		}
	})
	if restoreErr != nil {
		return restoreErr
	}

	r.t = s.T
	r.lastIn = s.LastIn
	r.lastFb = s.LastFb
	r.fbDrops = s.FbDrops
	r.steps = s.Steps

	r.cons.RestoreState(s.Console)
	r.mem.SetPending(s.Pending)
	r.chain.SetStats(s.ChainWrites, s.ChainDropped)
	r.board.RestoreState(s.Board)
	r.plc.RestoreState(s.PLC)
	r.plant.RestoreState(s.Plant)
	r.ctrl.RestoreState(s.Ctrl)
	return nil
}

// RestoreExcept is Restore, except that keep, one of this rig's Snapshotter
// components, keeps its own state and needs none in s. A component that
// has not acted yet can so resume a snapshot taken from a rig that lacked
// it or held a differently configured one (another attack, another
// injector seed), provided the run s was taken from had not reached the
// point where keep would have acted either.
func (r *Rig) RestoreExcept(s Snapshot, keep Snapshotter) error {
	named := make(map[string]any, len(s.Named)+1)
	for key, st := range s.Named {
		named[key] = st
	}
	r.snapshotters(func(key string, sn Snapshotter) {
		if sn == keep {
			named[key] = sn.CaptureSnap()
		}
	})
	s.Named = named
	return r.Restore(s)
}
