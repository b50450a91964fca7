// Package core implements the paper's primary contribution: dynamic
// model-based detection and mitigation of malicious commands in a
// teleoperated surgical robot (Section IV, Figure 7b).
//
// The Guard sits at the bottom of the write-interposition chain — the
// place the paper argues for: "at lower layers of the control structure
// and just before the commands are going to be executed on the physical
// robot" — below any maliciously preloaded wrapper, standing in for the
// trusted hardware module the paper proposes. For every DAC command frame
// it:
//
//  1. runs the robot's dynamic model one control period ahead to estimate
//     the next motor velocities/accelerations and joint velocities that
//     executing the command would produce;
//  2. compares the estimates against thresholds learned from the
//     99.8–99.9th percentile of fault-free operation;
//  3. fuses the three per-joint alarms (motor acceleration AND motor
//     velocity AND joint velocity) to suppress false alarms from model
//     inaccuracy and trajectory noise;
//  4. in mitigation mode, neutralises the offending frame (zeroing its DAC
//     payload) and forces the system into the E-STOP state before the
//     command can manifest in the physical robot.
//
// The model is kept synchronised with the physical system through the same
// encoder feedback stream the control software reads.
package core

import (
	"encoding/binary"
	"fmt"

	"ravenguard/internal/dynamics"
	"ravenguard/internal/estimator"
	"ravenguard/internal/interpose"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/motor"
	"ravenguard/internal/sim"
	"ravenguard/internal/statemachine"
	"ravenguard/internal/stats"
	"ravenguard/internal/usb"
)

// Mode selects the guard's response to an alarm.
type Mode int

// Modes.
const (
	// ModeMonitor raises alarms but lets every frame through (shadow
	// deployment; used to score detection without mitigation, and by the
	// threshold learner).
	ModeMonitor Mode = iota + 1
	// ModeMitigate neutralises alarming frames and forces E-STOP (the
	// paper's "stopping the commands from execution and put the control
	// software into a safe state (E-STOP)").
	ModeMitigate
	// ModeHoldSafe is the paper's alternative mitigation: "correcting the
	// malicious control command by forcing the robot to stay in a
	// previously safe state". Alarming frames have their DAC payload
	// replaced with the last frame that passed all checks; the session
	// continues rather than halting.
	ModeHoldSafe
)

// Fusion selects how the three per-joint alarm variables combine into one
// alarm decision.
type Fusion int

// Fusion strategies.
const (
	// FusionAll is the paper's design: alert only when motor acceleration
	// AND motor velocity AND joint velocity all exceed their thresholds on
	// the same joint — "to reduce false alarms due to model inaccuracies
	// and natural noise in the trajectory".
	FusionAll Fusion = iota + 1
	// FusionAny alerts when any single variable exceeds its threshold
	// (the ablation baseline: more sensitive, more false alarms).
	FusionAny
)

// Thresholds are the per-joint alarm limits on the model's one-step-ahead
// estimates: motor velocity (rad/s), motor acceleration (rad/s^2) and
// joint velocity (rad/s; m/s for the prismatic joint).
type Thresholds struct {
	MotorVel   [kinematics.NumJoints]float64
	MotorAccel [kinematics.NumJoints]float64
	JointVel   [kinematics.NumJoints]float64
}

// Validate rejects non-positive limits.
func (th Thresholds) Validate() error {
	for i := 0; i < kinematics.NumJoints; i++ {
		if th.MotorVel[i] <= 0 || th.MotorAccel[i] <= 0 || th.JointVel[i] <= 0 {
			return fmt.Errorf("core: thresholds for joint %d must be positive", i)
		}
	}
	return nil
}

// Sample is one control cycle's worth of model estimates, exported to the
// threshold learner and to experiment traces.
type Sample struct {
	T          float64
	MotorVel   [kinematics.NumJoints]float64 // |estimated|, rad/s
	MotorAccel [kinematics.NumJoints]float64 // |estimated|, rad/s^2
	JointVel   [kinematics.NumJoints]float64 // |estimated|
}

// Config assembles a Guard.
type Config struct {
	// Integrator is "euler" (the paper's best runtime/accuracy trade) or
	// "rk4". Default "euler".
	Integrator string
	// Params are the nominal dynamic constants (the design model — NOT the
	// plant's perturbed reality).
	Params dynamics.Params
	// Bank holds the motor channel constants.
	Bank motor.Bank
	// Trans converts between motor and joint coordinates.
	Trans kinematics.Transmission
	// Thresholds are the learned alarm limits. Required in ModeMitigate
	// and for alarm scoring; a zero value disables alarming (pure model
	// tracking, as the learner uses).
	Thresholds Thresholds
	// Mode defaults to ModeMonitor.
	Mode Mode
	// Fusion defaults to FusionAll (the paper's three-way AND).
	Fusion Fusion
	// Resync selects how the model absorbs encoder feedback:
	// "proportional" (default; the paper's plain resynchronisation with
	// gain ResyncGain) or "kalman" (a per-joint steady-state Kalman
	// filter, following the UKF line of work the paper cites).
	Resync string
	// ResyncGain is the per-cycle fraction of the position/velocity
	// innovation applied to the model state (default 0.1; proportional
	// mode only).
	ResyncGain float64
	// InnovationLimit flags the feedback stream as suspect when the
	// motor-position innovation exceeds this many radians for
	// InnovationRun consecutive cycles — a residual check that catches
	// encoder-feedback tampering (Table I's read-path attack). Zero
	// selects 0.05 rad over 5 cycles.
	InnovationLimit float64
	// InnovationRun is the consecutive-cycle count for the residual check.
	InnovationRun int
	// HoldCooldownTicks is how many cycles ModeHoldSafe keeps replacing
	// payloads after an alarm before re-evaluating the envelope; without
	// it the alarm clears as soon as the held commands calm the model and
	// the next malicious frame slips through (default 50).
	HoldCooldownTicks int
	// OnSample, when set, receives every cycle's estimates.
	OnSample func(Sample)
	// EStop, when set, is invoked once on the first mitigated frame (the
	// rig wires it to the PLC's emergency-stop latch).
	EStop func(cause string)
	// Clock times the one-step-ahead model evaluation for the
	// detection-latency statistics (StepTime). Defaults to sim.WallClock;
	// deterministic campaigns may inject sim.TickClock or their own.
	Clock sim.Clock
}

func (c *Config) applyDefaults() {
	if c.Integrator == "" {
		c.Integrator = "euler"
	}
	if c.Params == (dynamics.Params{}) {
		c.Params = dynamics.DefaultParams()
	}
	if c.Bank == (motor.Bank{}) {
		c.Bank = motor.DefaultBank()
	}
	if c.Trans == (kinematics.Transmission{}) {
		c.Trans = kinematics.DefaultTransmission()
	}
	if c.ResyncGain == 0 {
		c.ResyncGain = 0.1
	}
	if c.Mode == 0 {
		c.Mode = ModeMonitor
	}
	if c.Clock == nil {
		c.Clock = sim.WallClock
	}
	if c.Fusion == 0 {
		c.Fusion = FusionAll
	}
	if c.HoldCooldownTicks == 0 {
		c.HoldCooldownTicks = 50
	}
	if c.Resync == "" {
		c.Resync = "proportional"
	}
	if c.InnovationLimit == 0 {
		c.InnovationLimit = 0.05
	}
	if c.InnovationRun == 0 {
		c.InnovationRun = 5
	}
}

// Guard is the dynamic model-based detector/mitigator. It implements
// sim.Hook. Not safe for concurrent use: the control loop owns it.
type Guard struct {
	cfg   Config //ravenlint:snapshot-ignore configuration, fixed after New
	model *dynamics.Stepper
	rk4   bool //ravenlint:snapshot-ignore derived from cfg.Integrator at New
	state dynamics.State
	// armed (thresholds are non-zero) is derived from cfg.Thresholds at New
	// and never changes afterwards.
	armed  bool //ravenlint:snapshot-ignore derived from cfg.Thresholds at New
	synced bool // model snapped to first feedback

	prevFbMpos kinematics.MotorPos
	havePrevFb bool

	kalman      [kinematics.NumJoints]*estimator.Kalman
	innovStreak int
	fbSuspect   bool

	gapPending   bool // a feedback frame was lost since the last good one
	feedbackGaps int

	alarms    int
	mitigated int
	estopSent bool
	lastEst   Sample
	stepTime  stats.Running // wall-clock ns per model step

	// safeRing holds recent passing teleop payloads for ModeHoldSafe. On
	// alarm the payload from safeLag frames ago is held: the most recent
	// passing frames may already be corrupted (the fused alarm needs a few
	// cycles of velocity build-up to fire), so the hold must reach back
	// past the detection latency.
	safeRing     [safeRingLen][usb.NumChannels]int16
	safeCount    int
	lastSafeHold int // frames replaced with the safe payload
	holdCooldown int // remaining cycles of unconditional holding
}

// safeRingLen and safeLag size the hold-safe history: the fused alarm's
// worst observed latency is under 16 cycles.
const (
	safeRingLen = 32
	safeLag     = 16
)

var _ sim.Hook = (*Guard)(nil)

// NewGuard builds the guard.
func NewGuard(cfg Config) (*Guard, error) {
	cfg.applyDefaults()
	if !dynamics.ValidScheme(cfg.Integrator) {
		return nil, fmt.Errorf("core: unknown integrator %q (want \"euler\" or \"rk4\")", cfg.Integrator)
	}
	model, err := dynamics.NewStepper(cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := cfg.Bank.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	armed := cfg.Thresholds != (Thresholds{})
	if armed {
		if err := cfg.Thresholds.Validate(); err != nil {
			return nil, err
		}
	}
	if (cfg.Mode == ModeMitigate || cfg.Mode == ModeHoldSafe) && !armed {
		return nil, fmt.Errorf("core: mitigation modes require thresholds")
	}
	g := &Guard{cfg: cfg, model: model, rk4: cfg.Integrator == "rk4", armed: armed}
	switch cfg.Resync {
	case "proportional":
	case "kalman":
		for i := 0; i < kinematics.NumJoints; i++ {
			kf, err := estimator.NewKalman(estimator.KalmanConfig{Ratio: cfg.Trans.Ratio[i]})
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			g.kalman[i] = kf
		}
	default:
		return nil, fmt.Errorf("core: unknown resync scheme %q (want \"proportional\" or \"kalman\")", cfg.Resync)
	}
	return g, nil
}

// Name implements interpose.Wrapper.
func (g *Guard) Name() string { return "dynamic-model-guard" }

// SetEStop installs the emergency-stop callback after construction (the
// simulation rig wires it to the PLC latch; see sim.New).
func (g *Guard) SetEStop(f func(cause string)) { g.cfg.EStop = f }

// Alarms returns how many frames raised an alarm.
func (g *Guard) Alarms() int { return g.alarms }

// Mitigated returns how many frames were neutralised.
func (g *Guard) Mitigated() int { return g.mitigated }

// Verdict is a compact snapshot of the guard's cumulative decisions, cheap
// to sample every control period (the fleet engine folds one per tick into
// its session digests).
type Verdict struct {
	Alarms     int
	Mitigated  int
	HeldFrames int
	FbSuspect  bool
}

// Verdict returns the current decision snapshot.
//
//ravenlint:noalloc
func (g *Guard) Verdict() Verdict {
	return Verdict{
		Alarms:     g.alarms,
		Mitigated:  g.mitigated,
		HeldFrames: g.lastSafeHold,
		FbSuspect:  g.fbSuspect,
	}
}

// LastEstimates returns the most recent cycle's model estimates.
func (g *Guard) LastEstimates() Sample { return g.lastEst }

// StepTime returns the wall-clock statistics of the model step in
// nanoseconds (the Figure 8 "Avg. Time/Step" measurement).
func (g *Guard) StepTime() stats.Summary { return g.stepTime.Summarize() }

// ModelState exposes the model's current estimate of the full state
// (for the Figure 8 model-vs-robot comparison).
func (g *Guard) ModelState() (kinematics.MotorPos, kinematics.JointPos) {
	return g.state.MotorPos(), g.state.JointPos()
}

// OnFeedback implements sim.Hook: it synchronises the model with the
// encoder stream. The first frame snaps the model onto the measured pose;
// later frames apply a proportional innovation so model drift (parameter
// mismatch, unmodelled friction) stays bounded without masking the fast
// transients the detector must see.
func (g *Guard) OnFeedback(fb usb.Feedback, _ float64) {
	var mposMeas kinematics.MotorPos
	for i := 0; i < kinematics.NumJoints; i++ {
		mposMeas[i] = g.cfg.Bank[i].AngleFromCounts(fb.Encoder[i])
	}
	if !g.synced {
		jp := g.cfg.Trans.ToJoint(mposMeas)
		g.state.SetJointPos(jp, g.cfg.Trans)
		g.synced = true
		g.prevFbMpos = mposMeas
		g.havePrevFb = true
		g.gapPending = false
		return
	}

	worstInnov := 0.0
	for i := 0; i < kinematics.NumJoints; i++ {
		innov := estimator.Innovation(estimator.JointState{MotorPos: g.state.X[4*i]}, mposMeas[i])
		if innov > worstInnov {
			worstInnov = innov
		}
	}

	if g.gapPending {
		// First frame after a feedback gap: the measurement may be many
		// cycles newer than the last one the filters saw, so neither the
		// finite-difference velocity innovation nor the tamper residual is
		// meaningful. Resynchronise instead — hard-snap the positions when
		// the model drifted past the innovation limit during the gap, and
		// restart the velocity differencing from this frame.
		g.gapPending = false
		if worstInnov > g.cfg.InnovationLimit {
			jp := g.cfg.Trans.ToJoint(mposMeas)
			g.state.SetJointPos(jp, g.cfg.Trans)
		}
		g.innovStreak = 0
		g.prevFbMpos = mposMeas
		g.havePrevFb = true
		return
	}

	// Residual check: a persistent large innovation means the encoder
	// stream and the model disagree far beyond model error — either the
	// model diverged or the feedback is being tampered with on the read
	// path (Table I). The flag is advisory; consumers decide the response.
	if worstInnov > g.cfg.InnovationLimit {
		g.innovStreak++
		if g.innovStreak >= g.cfg.InnovationRun {
			g.fbSuspect = true
		}
	} else {
		g.innovStreak = 0
	}

	const dt = 1e-3
	if g.kalman[0] != nil {
		for i := 0; i < kinematics.NumJoints; i++ {
			pred := estimator.JointState{
				MotorPos: g.state.X[4*i],
				MotorVel: g.state.X[4*i+1],
				LinkPos:  g.state.X[4*i+2],
				LinkVel:  g.state.X[4*i+3],
			}
			corr := g.kalman[i].Update(pred, mposMeas[i], dt)
			g.state.X[4*i] = corr.MotorPos
			g.state.X[4*i+1] = corr.MotorVel
			g.state.X[4*i+2] = corr.LinkPos
			g.state.X[4*i+3] = corr.LinkVel
		}
	} else {
		gain := g.cfg.ResyncGain
		jmeas := g.cfg.Trans.ToJoint(mposMeas)
		for i := 0; i < kinematics.NumJoints; i++ {
			// Positions: proportional pull toward the measurement.
			g.state.X[4*i] += gain * (mposMeas[i] - g.state.X[4*i])
			g.state.X[4*i+2] += gain * (jmeas[i] - g.state.X[4*i+2])
		}
		if g.havePrevFb {
			for i := 0; i < kinematics.NumJoints; i++ {
				vmeas := (mposMeas[i] - g.prevFbMpos[i]) / dt
				g.state.X[4*i+1] += gain * (vmeas - g.state.X[4*i+1])
				g.state.X[4*i+3] += gain * (vmeas/g.cfg.Trans.Ratio[i] - g.state.X[4*i+3])
			}
		}
	}
	g.prevFbMpos = mposMeas
	g.havePrevFb = true
}

// OnFeedbackGap implements sim.FeedbackGapObserver: the rig reports a lost
// (undecodable) feedback frame. The model keeps dead-reckoning on its own
// integration; the next good frame triggers a resynchronisation rather
// than being misread as a one-cycle jump (which would spike the velocity
// innovation and could raise a false tamper flag).
func (g *Guard) OnFeedbackGap(float64) {
	g.feedbackGaps++
	g.gapPending = true
}

// FeedbackGaps returns how many feedback-frame losses the rig reported.
func (g *Guard) FeedbackGaps() int { return g.feedbackGaps }

// FeedbackSuspect reports whether the innovation residual has flagged the
// encoder stream as inconsistent with the model (possible read-path
// tampering).
func (g *Guard) FeedbackSuspect() bool { return g.fbSuspect }

// predictDT is the one-step-ahead horizon: one control period.
const predictDT = 1e-3

// OnWrite implements interpose.Wrapper: estimate the command's physical
// consequence before it executes, and neutralise it when it would violate
// the learned safety envelope.
//
//ravenlint:noalloc
func (g *Guard) OnWrite(buf []byte) interpose.Verdict {
	cmd, err := usb.DecodeCommand(buf)
	if err != nil {
		return interpose.Pass // not a command frame; nothing to check
	}

	st, ok := statemachine.FromNibble(cmd.StateNibble)
	if !ok || (st != statemachine.PedalDown && st != statemachine.Init) {
		// Brakes engaged: commands cannot move the arm. Freeze the model's
		// velocities the way the brakes freeze the robot's.
		for i := 0; i < kinematics.NumJoints; i++ {
			g.state.X[4*i+1] = 0
			g.state.X[4*i+3] = 0
		}
		return interpose.Pass
	}
	if !g.synced {
		return interpose.Pass // no feedback yet; cannot estimate
	}
	// During Init the model tracks the homing motion but neither samples
	// nor alarms: the threat model triggers attacks in Pedal Down (the
	// only state where the console drives the arm), and homing's fast
	// sweep would otherwise inflate the learned teleoperation envelope.
	teleop := st == statemachine.PedalDown

	// One-step-ahead simulation of the command.
	var tau [kinematics.NumJoints]float64
	for i := 0; i < kinematics.NumJoints; i++ {
		tau[i] = g.cfg.Bank[i].DACToTorque(cmd.DAC[i])
	}
	prevMotorVel := g.state.MotorVel()

	start := g.cfg.Clock()
	g.model.SetTorque(tau)
	g.model.Step(g.rk4, &g.state.X, predictDT)
	g.stepTime.Add(float64(g.cfg.Clock() - start))

	var est Sample
	mv := g.state.MotorVel()
	jv := g.state.JointVel()
	for i := 0; i < kinematics.NumJoints; i++ {
		est.MotorVel[i] = abs(mv[i])
		est.MotorAccel[i] = abs((mv[i] - prevMotorVel[i]) / predictDT)
		est.JointVel[i] = abs(jv[i])
	}
	g.lastEst = est
	if !teleop {
		return interpose.Pass
	}
	if g.cfg.OnSample != nil {
		g.cfg.OnSample(est)
	}

	if !g.armed {
		return interpose.Pass
	}

	// Inside a hold-safe cooldown the payload is replaced unconditionally:
	// the robot is being forced to stay in the previously safe state. The
	// hold releases only when the cooldown has drained AND the incoming
	// command's estimated acceleration is back inside the envelope — a
	// still-active attacker re-triggers the hold on the first frame, from
	// the acceleration spike alone (velocity needs several frames to
	// rebuild, so the fused alarm would miss it).
	if g.cfg.Mode == ModeHoldSafe && g.holdCooldown > 0 {
		g.holdCooldown--
		if g.holdCooldown == 0 && g.accelSuspicious(est) {
			g.holdCooldown = g.cfg.HoldCooldownTicks
		}
		g.holdPayload(buf)
		return interpose.Pass
	}

	// Alarm fusion (Section IV.C): with FusionAll, all three variables
	// must indicate abnormality on the same joint.
	alarm := false
	for i := 0; i < kinematics.NumJoints; i++ {
		accelHit := est.MotorAccel[i] > g.cfg.Thresholds.MotorAccel[i]
		mvelHit := est.MotorVel[i] > g.cfg.Thresholds.MotorVel[i]
		jvelHit := est.JointVel[i] > g.cfg.Thresholds.JointVel[i]
		switch g.cfg.Fusion {
		case FusionAny:
			alarm = accelHit || mvelHit || jvelHit
		default:
			alarm = accelHit && mvelHit && jvelHit
		}
		if alarm {
			break
		}
	}
	if !alarm {
		g.safeRing[g.safeCount%safeRingLen] = cmd.DAC
		g.safeCount++
		return interpose.Pass
	}
	g.alarms++

	switch g.cfg.Mode {
	case ModeMitigate:
		// Neutralise the frame in place (zero DAC payload) so the motors
		// receive a safe command rather than retaining the dangerous one,
		// and latch the emergency stop.
		for ch := 0; ch < usb.NumChannels; ch++ {
			off := usb.DACBase + 2*ch
			buf[off] = 0
			buf[off+1] = 0
		}
		g.mitigated++
		if !g.estopSent && g.cfg.EStop != nil {
			g.estopSent = true
			g.cfg.EStop("dynamic-model guard: estimated motion exceeds safety envelope")
		}
	case ModeHoldSafe:
		// Replace the payload with the last command that stayed inside the
		// envelope and keep holding for the cooldown window; the procedure
		// continues rather than halting. The feedback resync absorbs the
		// difference between the modelled and the held command.
		g.holdPayload(buf)
		g.holdCooldown = g.cfg.HoldCooldownTicks
	}
	return interpose.Pass
}

// State is the guard's complete mutable state, for checkpoint/restore:
// the tracking model (state vector plus the integrator's torque and
// gravity-anchor latches), the feedback-resync filters, residual-check
// accumulators, alarm/mitigation counters, and the hold-safe history.
// Configuration (thresholds, mode, fusion, callbacks) stays with the
// target guard.
type State struct {
	Model  dynamics.StepperState
	X      [dynamics.StateDim]float64
	Synced bool

	PrevFbMpos kinematics.MotorPos
	HavePrevFb bool

	Kalman      [kinematics.NumJoints]estimator.Kalman
	InnovStreak int
	FbSuspect   bool

	GapPending   bool
	FeedbackGaps int

	Alarms    int
	Mitigated int
	EStopSent bool
	LastEst   Sample
	StepTime  stats.Running

	SafeRing     [safeRingLen][usb.NumChannels]int16
	SafeCount    int
	LastSafeHold int
	HoldCooldown int
}

// CaptureSnap implements sim.Snapshotter (Name is the wrapper name).
func (g *Guard) CaptureSnap() any {
	s := State{
		Model:  g.model.Checkpoint(),
		X:      g.state.X,
		Synced: g.synced,

		PrevFbMpos: g.prevFbMpos,
		HavePrevFb: g.havePrevFb,

		InnovStreak: g.innovStreak,
		FbSuspect:   g.fbSuspect,

		GapPending:   g.gapPending,
		FeedbackGaps: g.feedbackGaps,

		Alarms:    g.alarms,
		Mitigated: g.mitigated,
		EStopSent: g.estopSent,
		LastEst:   g.lastEst,
		StepTime:  g.stepTime,

		SafeRing:     g.safeRing,
		SafeCount:    g.safeCount,
		LastSafeHold: g.lastSafeHold,
		HoldCooldown: g.holdCooldown,
	}
	if g.kalman[0] != nil {
		for i := 0; i < kinematics.NumJoints; i++ {
			s.Kalman[i] = *g.kalman[i]
		}
	}
	return s
}

// RestoreSnap implements sim.Snapshotter.
func (g *Guard) RestoreSnap(st any) error {
	s, ok := st.(State)
	if !ok {
		return fmt.Errorf("core: guard snapshot has type %T", st)
	}
	g.model.RestoreCheckpoint(s.Model)
	g.state.X = s.X
	g.synced = s.Synced

	g.prevFbMpos = s.PrevFbMpos
	g.havePrevFb = s.HavePrevFb

	if g.kalman[0] != nil {
		for i := 0; i < kinematics.NumJoints; i++ {
			*g.kalman[i] = s.Kalman[i]
		}
	}
	g.innovStreak = s.InnovStreak
	g.fbSuspect = s.FbSuspect

	g.gapPending = s.GapPending
	g.feedbackGaps = s.FeedbackGaps

	g.alarms = s.Alarms
	g.mitigated = s.Mitigated
	g.estopSent = s.EStopSent
	g.lastEst = s.LastEst
	g.stepTime = s.StepTime

	g.safeRing = s.SafeRing
	g.safeCount = s.SafeCount
	g.lastSafeHold = s.LastSafeHold
	g.holdCooldown = s.HoldCooldown
	return nil
}

// accelSuspicious reports whether any joint's estimated acceleration alone
// exceeds its threshold (the hold-release probe).
func (g *Guard) accelSuspicious(est Sample) bool {
	for i := 0; i < kinematics.NumJoints; i++ {
		if est.MotorAccel[i] > g.cfg.Thresholds.MotorAccel[i] {
			return true
		}
	}
	return false
}

// holdPayload overwrites the frame's DAC payload with a command from
// before the detection latency window (or zeros when history is too
// shallow).
func (g *Guard) holdPayload(buf []byte) {
	if g.safeCount > safeLag {
		idx := (g.safeCount - 1 - safeLag) % safeRingLen
		held := g.safeRing[idx]
		for ch := 0; ch < usb.NumChannels; ch++ {
			binary.LittleEndian.PutUint16(buf[usb.DACBase+2*ch:], uint16(held[ch]))
		}
	} else {
		for ch := 0; ch < usb.NumChannels; ch++ {
			off := usb.DACBase + 2*ch
			buf[off] = 0
			buf[off+1] = 0
		}
	}
	g.mitigated++
	g.lastSafeHold++
}

// HeldFrames returns how many frames ModeHoldSafe replaced with the last
// safe command.
func (g *Guard) HeldFrames() int { return g.lastSafeHold }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
