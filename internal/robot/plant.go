// Package robot implements the physical plant: the software stand-in for
// the real RAVEN II arm's electromechanics. It integrates the two-mass
// cable-drive dynamics with a 4th-order Runge-Kutta scheme at a 50 us
// sub-step — far finer than the 1 ms control period — and layers on the
// non-idealities a real arm has and the detector's 1 ms model does not:
// per-unit parameter mismatch, stochastic torque disturbances, encoder
// quantisation, joint hard stops, fail-safe brakes, and cable breakage
// under extreme transients (the failure the paper observed when attacks
// caused abrupt jumps).
package robot

import (
	"fmt"
	"math/rand"

	"ravenguard/internal/dynamics"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/mathx"
	"ravenguard/internal/motor"
	"ravenguard/internal/randx"
	"ravenguard/internal/usb"
	"ravenguard/internal/wrist"
)

// Config assembles a plant.
type Config struct {
	// Params are the nominal dynamic constants; the plant perturbs them by
	// ParamJitter to model the real arm differing from the detector's model.
	Params dynamics.Params
	// Bank are the motor/amplifier/encoder channels (joint order).
	Bank motor.Bank
	// Seed drives all stochastic behaviour; runs are reproducible.
	Seed int64
	// ParamJitter is the relative perturbation applied to each dynamic
	// constant (default 0.03 = +/-3%).
	ParamJitter float64
	// TorqueNoise is the standard deviation of the white disturbance torque
	// added motor-side each sub-step, N m (default 0.0015).
	TorqueNoise float64
	// Substeps is the number of RK4 sub-steps per control period
	// (default 20, i.e. 50 us at 1 ms).
	Substeps int
	// Limits are the joint soft limits; hard stops sit 5% of range beyond.
	Limits kinematics.Limits
	// BreakTension is the cable tension (link-side N m, or N for the
	// prismatic joint) at which each joint's cable snaps. Zero selects
	// defaults.
	BreakTension [kinematics.NumJoints]float64
	// StartPose is the pose the arm rests in at power-up (defaults to the
	// lower workspace corner, where the arm hangs against its stops).
	StartPose kinematics.JointPos
}

func (c *Config) applyDefaults() {
	if c.ParamJitter == 0 {
		c.ParamJitter = 0.03
	}
	if c.TorqueNoise == 0 {
		c.TorqueNoise = 0.0015
	}
	if c.Substeps == 0 {
		c.Substeps = 20
	}
	zero := kinematics.Limits{}
	if c.Limits == zero {
		c.Limits = kinematics.DefaultLimits()
	}
	if c.BreakTension == [kinematics.NumJoints]float64{} {
		c.BreakTension = [kinematics.NumJoints]float64{8, 6, 60}
	}
	if c.StartPose == (kinematics.JointPos{}) {
		c.StartPose = kinematics.JointPos{
			c.Limits.Min[0] + 0.02,
			c.Limits.Min[1] + 0.02,
			c.Limits.Min[2] + 0.002,
		}
	}
}

// Plant is the simulated physical robot arm. It is not safe for concurrent
// use: the simulation loop owns it.
type Plant struct {
	cfg    Config //ravenlint:snapshot-ignore configuration, fixed after NewPlant
	model  *dynamics.Stepper
	state  dynamics.State
	trans  kinematics.Transmission //ravenlint:snapshot-ignore derived from perturbed params at NewPlant
	rng    *rand.Rand              //ravenlint:snapshot-ignore draws through rngSrc, whose position is captured
	rngSrc *randx.Source
	brakes bool
	broken [kinematics.NumJoints]bool
	hard   kinematics.Limits                //ravenlint:snapshot-ignore derived from cfg.Limits at NewPlant
	cable  [kinematics.NumJoints]cableCheck //ravenlint:snapshot-ignore derived from perturbed params at NewPlant
	wrist  *wrist.Servo
	t      float64
}

// cableCheck is the per-joint constants of the cable-tension breakage
// test, hoisted out of the perturbed parameter set at construction so
// checkCables and laneCheckCables don't copy the whole Params struct on
// every 50 us sub-step (a measurable slice of the fleet worker tick).
// Ratio is kept as the divisor — not a reciprocal — so the tension
// arithmetic stays bit-identical to the documented formula.
type cableCheck struct {
	ratio   float64 // transmission ratio N (perturbation-free, but read from the same perturbed set)
	k       float64 // cable stiffness
	b       float64 // cable damping
	breakAt float64 // cfg.BreakTension for the joint
}

// NewPlant builds a plant with per-run perturbed parameters.
func NewPlant(cfg Config) (*Plant, error) {
	cfg.applyDefaults()
	if err := cfg.Bank.Validate(); err != nil {
		return nil, fmt.Errorf("robot: %w", err)
	}
	rng, rngSrc := randx.New(cfg.Seed)
	perturbed := perturb(cfg.Params, cfg.ParamJitter, rng)
	model, err := dynamics.NewStepper(perturbed)
	if err != nil {
		return nil, fmt.Errorf("robot: %w", err)
	}

	// Hard stops 5% of joint range beyond the soft limits.
	hard := cfg.Limits
	for i := 0; i < kinematics.NumJoints; i++ {
		margin := 0.05 * (cfg.Limits.Max[i] - cfg.Limits.Min[i])
		hard.Min[i] -= margin
		hard.Max[i] += margin
	}

	var tr kinematics.Transmission
	for i := 0; i < kinematics.NumJoints; i++ {
		tr.Ratio[i] = perturbed.Joints[i].Ratio
	}

	wristServo, err := wrist.NewServo(wrist.DefaultParams(), wrist.DefaultLimits())
	if err != nil {
		return nil, fmt.Errorf("robot: %w", err)
	}

	p := &Plant{
		cfg:    cfg,
		model:  model,
		trans:  tr,
		rng:    rng,
		rngSrc: rngSrc,
		brakes: true,
		hard:   hard,
		wrist:  wristServo,
	}
	for i := 0; i < kinematics.NumJoints; i++ {
		jp := &perturbed.Joints[i]
		p.cable[i] = cableCheck{
			ratio:   jp.Ratio,
			k:       jp.CableStiffness,
			b:       jp.CableDamping,
			breakAt: cfg.BreakTension[i],
		}
	}
	p.state.SetJointPos(cfg.StartPose, tr)
	return p, nil
}

// perturb scales every physical constant by 1 + jitter*U(-1,1).
func perturb(p dynamics.Params, jitter float64, rng *rand.Rand) dynamics.Params {
	scale := func(v float64) float64 { return v * (1 + jitter*(2*rng.Float64()-1)) }
	for i := range p.Joints {
		j := &p.Joints[i]
		j.MotorInertia = scale(j.MotorInertia)
		j.MotorDamping = scale(j.MotorDamping)
		j.CableStiffness = scale(j.CableStiffness)
		j.CableDamping = scale(j.CableDamping)
		j.LinkInertia = scale(j.LinkInertia)
		j.LinkDamping = scale(j.LinkDamping)
		j.Coulomb = scale(j.Coulomb)
		j.GravConst = scale(j.GravConst)
		// Transmission ratio and gravity phase are geometric, not jittered.
	}
	return p
}

// SetBrakes engages or releases the fail-safe power-off brakes. Engaged
// brakes freeze the arm: a braked joint holds position regardless of DAC
// input (the amplifier outputs are mechanically irrelevant).
func (p *Plant) SetBrakes(on bool) { p.brakes = on }

// BrakesEngaged reports the brake state.
func (p *Plant) BrakesEngaged() bool { return p.brakes }

// Step advances the plant by one control period dt (seconds), driven by the
// DAC values currently latched on the board's first NumJoints channels.
//
//ravenlint:noalloc
func (p *Plant) Step(dacs [usb.NumChannels]int16, dt float64) {
	if p.brakes {
		p.stepBraked(dt)
		return
	}
	tau := p.prepTick(dacs, dt)
	sub := dt / float64(p.cfg.Substeps)
	for s := 0; s < p.cfg.Substeps; s++ {
		noisy := p.noisyTau(tau)
		p.model.SetTorque(noisy)
		p.model.StepRK4(&p.state.X, sub)
		p.t += sub
		p.enforceHardStops()
		p.checkCables()
	}
}

// stepBraked holds the arm for one control period: power-off brakes clamp
// the motors. Velocities are zeroed so releasing the brakes starts from
// rest.
//
//ravenlint:noalloc
func (p *Plant) stepBraked(dt float64) {
	for i := 0; i < kinematics.NumJoints; i++ {
		p.state.X[4*i+1] = 0
		p.state.X[4*i+3] = 0
	}
	p.wrist.Step([wrist.NumJoints]int16{}, dt, true)
	p.t += dt
}

// prepTick performs the once-per-control-period work of an unbraked step:
// DAC-to-torque conversion for the positioning motors and the instrument
// wrist servo update (channels 3..5: light direct-drive joints integrated
// at the control period). It returns the commanded arm torques.
//
//ravenlint:noalloc
func (p *Plant) prepTick(dacs [usb.NumChannels]int16, dt float64) [kinematics.NumJoints]float64 {
	var tau [kinematics.NumJoints]float64
	for i := 0; i < kinematics.NumJoints; i++ {
		tau[i] = p.cfg.Bank[i].DACToTorque(dacs[i])
	}
	var wristDACs [wrist.NumJoints]int16
	for i := 0; i < wrist.NumJoints; i++ {
		wristDACs[i] = dacs[kinematics.NumJoints+i]
	}
	p.wrist.Step(wristDACs, dt, false)
	return tau
}

// noisyTau adds one sub-step's white disturbance torque to the commanded
// torques. The draw happens for every joint — broken ones included — so the
// rng stream is identical whether or not a cable has snapped; a snapped
// cable then decouples motor from link (zero drive, the link coasts).
//
//ravenlint:noalloc
func (p *Plant) noisyTau(tau [kinematics.NumJoints]float64) [kinematics.NumJoints]float64 {
	for i := 0; i < kinematics.NumJoints; i++ {
		tau[i] += p.rng.NormFloat64() * p.cfg.TorqueNoise
		if p.broken[i] {
			tau[i] = 0
		}
	}
	return tau
}

// enforceHardStops clamps link positions at the mechanical stops with an
// inelastic collision (velocity zeroed into the stop).
//
//ravenlint:noalloc
func (p *Plant) enforceHardStops() {
	for i := 0; i < kinematics.NumJoints; i++ {
		pos := p.state.X[4*i+2]
		vel := p.state.X[4*i+3]
		if pos < p.hard.Min[i] {
			p.state.X[4*i+2] = p.hard.Min[i]
			if vel < 0 {
				p.state.X[4*i+3] = 0
			}
		} else if pos > p.hard.Max[i] {
			p.state.X[4*i+2] = p.hard.Max[i]
			if vel > 0 {
				p.state.X[4*i+3] = 0
			}
		}
	}
}

// checkCables snaps a cable whose tension exceeds the break limit.
//
//ravenlint:noalloc
func (p *Plant) checkCables() {
	for i := 0; i < kinematics.NumJoints; i++ {
		if p.broken[i] {
			continue
		}
		jc := &p.cable[i]
		stretch := p.state.X[4*i]/jc.ratio - p.state.X[4*i+2]
		stretchVel := p.state.X[4*i+1]/jc.ratio - p.state.X[4*i+3]
		tension := jc.k*stretch + jc.b*stretchVel
		if mathAbs(tension) > jc.breakAt {
			p.broken[i] = true
		}
	}
}

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// CableBroken reports whether any joint's cable has snapped, and which.
func (p *Plant) CableBroken() (any bool, which [kinematics.NumJoints]bool) {
	for _, b := range p.broken {
		if b {
			return true, p.broken
		}
	}
	return false, p.broken
}

// JointPos returns the true link-side joint positions.
func (p *Plant) JointPos() kinematics.JointPos { return p.state.JointPos() }

// JointVel returns the true link-side joint velocities.
func (p *Plant) JointVel() [kinematics.NumJoints]float64 { return p.state.JointVel() }

// MotorPos returns the true motor shaft angles.
func (p *Plant) MotorPos() kinematics.MotorPos { return p.state.MotorPos() }

// MotorVel returns the true motor shaft velocities.
func (p *Plant) MotorVel() [kinematics.NumJoints]float64 { return p.state.MotorVel() }

// TipPosition returns the true end-effector position (from link states).
func (p *Plant) TipPosition() mathx.Vec3 {
	return kinematics.Forward(p.state.JointPos())
}

// EncoderCounts returns the quantised motor encoder counts as the board
// reads them: positioning motors on channels 0..2, instrument joints on
// channels 3..5; the remaining channels read zero.
func (p *Plant) EncoderCounts() [usb.NumChannels]int32 {
	var counts [usb.NumChannels]int32
	mp := p.state.MotorPos()
	for i := 0; i < kinematics.NumJoints; i++ {
		counts[i] = p.cfg.Bank[i].EncoderCounts(mp[i])
	}
	wp := p.wrist.Pos()
	for i := 0; i < wrist.NumJoints; i++ {
		counts[kinematics.NumJoints+i] = wrist.EncoderCounts(wp[i])
	}
	return counts
}

// WristPos returns the true instrument-joint positions (roll, wrist
// pitch, grasp).
func (p *Plant) WristPos() [wrist.NumJoints]float64 { return p.wrist.Pos() }

// Transmission returns the plant's (perturbed) transmission ratios; the
// control software uses the nominal ones, which is part of the model
// mismatch.
func (p *Plant) Transmission() kinematics.Transmission { return p.trans }

// Time returns the plant-local simulated time in seconds.
func (p *Plant) Time() float64 { return p.t }

// State is the plant's complete mutable state, for checkpoint/restore.
// Configuration (perturbed parameters, bank, limits) is derived
// deterministically from Config at construction and stays with the target
// plant.
type State struct {
	X        [dynamics.StateDim]float64
	Model    dynamics.StepperState
	Rng      randx.Pos
	Brakes   bool
	Broken   [kinematics.NumJoints]bool
	T        float64
	WristPos [wrist.NumJoints]float64
	WristVel [wrist.NumJoints]float64
}

// CaptureState snapshots everything that evolves during simulation: the
// two-mass joint states, the integrator's internal latches (torque and
// gravity anchors), the disturbance rng position, brakes, cable breakage,
// local time, and the instrument servo states.
func (p *Plant) CaptureState() State {
	return State{
		X:        p.state.X,
		Model:    p.model.Checkpoint(),
		Rng:      p.rngSrc.Pos(),
		Brakes:   p.brakes,
		Broken:   p.broken,
		T:        p.t,
		WristPos: p.wrist.Pos(),
		WristVel: p.wrist.Vel(),
	}
}

// RestoreState rewinds the plant to a captured state. The restored rng
// stream continues bit-identically to the run the snapshot was taken from.
func (p *Plant) RestoreState(s State) {
	p.state.X = s.X
	p.model.RestoreCheckpoint(s.Model)
	p.rngSrc.Restore(s.Rng)
	p.brakes = s.Brakes
	p.broken = s.Broken
	p.t = s.T
	p.wrist.SetState(s.WristPos, s.WristVel)
}
