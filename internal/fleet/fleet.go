// Package fleet is the multi-tenant guard service engine: it runs many
// concurrent simulated teleoperation sessions — console script, 1 kHz
// control stack, physical plant, optionally under attack and optionally
// protected by the dynamic model-based guard — inside one process, at a
// density of hundreds to thousands of sessions per core.
//
// Sessions are sharded round-robin across per-core workers. Each worker is
// a sim.Lockstep — the same tick engine the campaign fan-outs run on —
// plus a tick-latency histogram: sessions' plants stay resident in the
// lanes of one structure-of-arrays stepper, every control period runs all
// control halves (each guard checks its frame in-line), one fused plant
// integration and all bookkeeping halves, and each step's guard decision
// folds into the session's running digest.
// Admission and retirement are dynamic — lanes compact by swaps on session
// exit — and the steady-state tick path is allocation-free.
//
// Determinism: a session run inside a packed fleet produces byte-identical
// guard verdicts and tip trajectories to the same Spec run alone
// (RunStandalone), at any worker count, through admission, parking,
// compaction, and retirement. fleet_test.go pins this at 1 and 8 workers.
package fleet

import (
	"fmt"

	"ravenguard/internal/console"
	"ravenguard/internal/core"
	"ravenguard/internal/inject"
	"ravenguard/internal/interpose"
	"ravenguard/internal/sim"
	"ravenguard/internal/trajectory"
)

// Spec declares one session: what the operator does, whether malware is
// preloaded, and whether the guard is watching. A Spec is pure data — two
// Builds of the same Spec produce bit-identical sessions.
type Spec struct {
	// Seed is the session's reproducibility seed (console jitter, plant
	// noise).
	Seed int64
	// TeleopSeconds is the pedal-down teleoperation time of the standard
	// script (0 selects the sim default of 10 s).
	TeleopSeconds float64
	// TrajIdx selects the surgical-motion profile (0 = circle,
	// 1 = lissajous).
	TrajIdx int

	// Attack selects the injected attack: "none", "A" (unintended user
	// inputs) or "B" (unintended torque commands).
	Attack string
	// AttackValue is scenario B's injected DAC error value.
	AttackValue int16
	// AttackMagnitude is scenario A's injected tip motion per cycle, meters.
	AttackMagnitude float64
	// AttackDuration is the attack activation period in control cycles.
	AttackDuration int
	// AttackDelay is the pedal-down cycles before the attack activates.
	AttackDelay int

	// Guard selects the dynamic-model guard mode: "off", "monitor",
	// "mitigate" or "holdsafe".
	Guard string
	// Thresholds overrides the guard's alarm limits (zero value selects the
	// built-in learned defaults).
	Thresholds core.Thresholds

	// StartTick is the engine tick at which the session is admitted (fleet
	// runs only; RunStandalone ignores it).
	StartTick int
}

// Session is one built session: the assembled rig plus the per-tick
// verdict/trajectory digest the fleet engine maintains.
type Session struct {
	Spec     Spec
	rig      *sim.Rig
	guard    *core.Guard // nil when Spec.Guard is "off"
	injected func() int  // nil when Spec.Attack is "none"
	dig      Digest
	ticks    int
}

// Build assembles the session with the spec's standard script and
// trajectory.
func (sp Spec) Build() (*Session, error) {
	var script console.Script
	if sp.TeleopSeconds > 0 {
		script = console.StandardScript(sp.TeleopSeconds)
	}
	return sp.BuildWith(script, trajectory.Standard()[sp.TrajIdx%len(trajectory.Standard())])
}

// BuildWith assembles the session around an explicit operator script and
// trajectory (e.g. a recorded session replay); the rest of the spec —
// seed, attack, guard — applies unchanged.
func (sp Spec) BuildWith(script console.Script, traj trajectory.Trajectory) (*Session, error) {
	cfg := sim.Config{
		Seed:   sp.Seed,
		Script: script,
		Traj:   traj,
	}

	s := &Session{Spec: sp, dig: NewDigest()}

	switch sp.Guard {
	case "", "off":
	case "monitor", "mitigate", "holdsafe":
		mode := core.ModeMonitor
		switch sp.Guard {
		case "mitigate":
			mode = core.ModeMitigate
		case "holdsafe":
			mode = core.ModeHoldSafe
		}
		th := sp.Thresholds
		if th == (core.Thresholds{}) {
			th = core.DefaultThresholds()
		}
		g, err := core.NewGuard(core.Config{Thresholds: th, Mode: mode})
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		s.guard = g
		cfg.Guards = []sim.Hook{g}
	default:
		return nil, fmt.Errorf("fleet: unknown guard mode %q (want off, monitor, mitigate or holdsafe)", sp.Guard)
	}

	switch sp.Attack {
	case "", "none":
	case "A":
		att, err := inject.NewScenarioA(inject.ScenarioAParams{
			Magnitude:       sp.AttackMagnitude,
			StartAfterTicks: sp.AttackDelay,
			ActivationTicks: sp.AttackDuration,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		cfg.OnInput = att.Hook()
		cfg.Stateful = append(cfg.Stateful, att)
		s.injected = att.Injected
	case "B":
		inj, err := inject.NewScenarioB(inject.ScenarioBParams{
			Value:           sp.AttackValue,
			Channel:         0,
			StartDelayTicks: sp.AttackDelay,
			ActivationTicks: sp.AttackDuration,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		cfg.Preload = []interpose.Wrapper{inj}
		s.injected = inj.Injected
	default:
		return nil, fmt.Errorf("fleet: unknown attack %q (want none, A or B)", sp.Attack)
	}

	rig, err := sim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	s.rig = rig
	return s, nil
}

// Rig exposes the assembled session (for observers and summary queries).
func (s *Session) Rig() *sim.Rig { return s.rig }

// Guard exposes the session's guard, nil when the spec ran unguarded.
func (s *Session) Guard() *core.Guard { return s.guard }

// Injected returns how many frames/inputs the session's attack corrupted
// (0 when the spec ran without an attack).
func (s *Session) Injected() int {
	if s.injected == nil {
		return 0
	}
	return s.injected()
}

// Ticks returns how many control periods the session has run.
func (s *Session) Ticks() int { return s.ticks }

// Sum returns the session's running verdict/trajectory digest.
func (s *Session) Sum() uint64 { return s.dig.Sum() }

// Note folds one completed step into the session digest. Worker.Admit
// registers it as a rig observer; RunStandalone calls it after each Step
// (exactly one fold per step, never both).
//
//ravenlint:noalloc
func (s *Session) Note(si sim.StepInfo) {
	var v core.Verdict
	if s.guard != nil {
		v = s.guard.Verdict()
	}
	s.dig.Note(si, v)
	s.ticks++
}

// RunStandalone builds the spec and drives it alone with Rig.Step — the
// reference a packed fleet must reproduce bit-for-bit.
func RunStandalone(sp Spec) (*Session, error) {
	s, err := sp.Build()
	if err != nil {
		return nil, err
	}
	for !s.rig.Done() {
		si, err := s.rig.Step()
		if err != nil {
			return nil, fmt.Errorf("fleet: standalone seed %d: %w", sp.Seed, err)
		}
		s.Note(si)
	}
	return s, nil
}
