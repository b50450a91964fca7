// Package inject is the attack injection engine of the paper's simulation
// framework (Figure 7a): it programs attack scenarios onto a simulation rig
// by installing malicious wrappers and hooks at the layer each attack
// targets, "with different values and activation periods ... at different
// times during a running trajectory".
//
// Two scenarios carry the quantitative evaluation:
//
//   - Scenario A injects unintended user inputs after they are received by
//     the control software (malicious desired end-effector motions).
//   - Scenario B injects unintended motor torque commands after the
//     software safety checks have passed, via the malicious write wrapper.
//
// The Table I variant matrix is implemented in variants.go.
package inject

import (
	"fmt"

	"ravenguard/internal/control"
	"ravenguard/internal/malware"
	"ravenguard/internal/mathx"
	"ravenguard/internal/sim"
)

// ScenarioAParams parameterises an unintended-user-input attack.
type ScenarioAParams struct {
	// Magnitude is the malicious per-cycle tip displacement, meters per
	// control period (the "injected error value" axis of Figure 9 for
	// scenario A).
	Magnitude float64
	// Dir is the direction of the malicious motion; zero means +X.
	Dir mathx.Vec3
	// StartAfterTicks is how many pedal-down cycles to wait before
	// activating — striking mid-procedure.
	StartAfterTicks int
	// ActivationTicks is the activation period in control cycles; 0 means
	// stay active forever once triggered.
	ActivationTicks int
}

// Validate rejects non-physical parameters.
func (p ScenarioAParams) Validate() error {
	if p.Magnitude < 0 {
		return fmt.Errorf("inject: negative magnitude %v", p.Magnitude)
	}
	if p.StartAfterTicks < 0 || p.ActivationTicks < 0 {
		return fmt.Errorf("inject: negative timing")
	}
	return nil
}

// ScenarioA is a live scenario-A attack bound to one run.
type ScenarioA struct {
	params   ScenarioAParams //ravenlint:snapshot-ignore attack configuration, fixed after NewScenarioA
	dir      mathx.Vec3      //ravenlint:snapshot-ignore derived from params at NewScenarioA
	seen     int
	injected int
}

// NewScenarioA builds the attack.
func NewScenarioA(p ScenarioAParams) (*ScenarioA, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	dir := p.Dir
	if dir.Norm() == 0 {
		dir = mathx.Vec3{X: 1}
	}
	return &ScenarioA{params: p, dir: dir.Unit()}, nil
}

// Hook returns the input hook to install as sim.Config.OnInput. The hook
// only acts while the pedal is down — inputs in other states do not move
// the robot, as the paper notes about trigger timing.
func (a *ScenarioA) Hook() sim.InputHook {
	return func(_ float64, in *control.Input) {
		if !in.PedalDown {
			return
		}
		a.seen++
		if a.seen <= a.params.StartAfterTicks {
			return
		}
		if a.params.ActivationTicks > 0 && a.injected >= a.params.ActivationTicks {
			return
		}
		in.Delta = in.Delta.Add(a.dir.Scale(a.params.Magnitude))
		a.injected++
	}
}

// Injected reports how many cycles were corrupted.
func (a *ScenarioA) Injected() int { return a.injected }

// FramesUntilActive reports how many more pedal-down cycles pass untouched
// before the attack corrupts its first one (0 once it is due).
func (a *ScenarioA) FramesUntilActive() int { return max(a.params.StartAfterTicks-a.seen, 0) }

// scenarioAState is the attack's mutable state.
type scenarioAState struct {
	seen, injected int
}

// Name implements sim.Snapshotter.
func (a *ScenarioA) Name() string { return "scenario-a" }

// CaptureSnap implements sim.Snapshotter.
func (a *ScenarioA) CaptureSnap() any {
	return scenarioAState{seen: a.seen, injected: a.injected}
}

// RestoreSnap implements sim.Snapshotter.
func (a *ScenarioA) RestoreSnap(st any) error {
	s, ok := st.(scenarioAState)
	if !ok {
		return fmt.Errorf("inject: scenario-A snapshot has type %T", st)
	}
	a.seen, a.injected = s.seen, s.injected
	return nil
}

// ScenarioBParams parameterises an unintended-torque-command attack: the
// malicious write wrapper corrupting DAC values after the safety check.
type ScenarioBParams struct {
	// Value is the DAC corruption (offset counts, the "injected error
	// value" axis of Figure 9 for scenario B).
	Value int16
	// Channel is the motor channel to corrupt.
	Channel int
	// StartDelayTicks delays activation after Pedal Down is first seen.
	StartDelayTicks int
	// ActivationTicks is the activation period in control cycles (frames).
	ActivationTicks int
	// Set replaces the DAC value instead of offsetting it.
	Set bool
	// RandomByte uses the paper's original corruption: overwrite one
	// random non-state byte per frame (ignores Value/Channel/Set).
	RandomByte bool
	// Seed drives RandomByte.
	Seed int64
}

// Validate rejects bad parameters.
func (p ScenarioBParams) Validate() error {
	if p.Channel < 0 || p.Channel > 7 {
		return fmt.Errorf("inject: channel %d out of range", p.Channel)
	}
	if p.StartDelayTicks < 0 || p.ActivationTicks < 0 {
		return fmt.Errorf("inject: negative timing")
	}
	return nil
}

// NewScenarioB builds the malicious injector wrapper to preload on the
// write chain (sim.Config.Preload).
func NewScenarioB(p ScenarioBParams) (*malware.Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mode := malware.ModeDACOffset
	if p.Set {
		mode = malware.ModeDACSet
	}
	if p.RandomByte {
		mode = malware.ModeRandomByte
	}
	return malware.NewInjector(malware.InjectorConfig{
		TriggerByte0:    0x0F, // Pedal Down, from the offline analysis
		Mode:            mode,
		Channel:         p.Channel,
		Value:           p.Value,
		StartDelayTicks: p.StartDelayTicks,
		ActivationTicks: p.ActivationTicks,
		Seed:            p.Seed,
	}), nil
}
