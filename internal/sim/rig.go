// Package sim assembles the full teleoperated-robot simulation of the
// paper's Figure 7(a): master-console emulator, ITP transport, control
// software, the write-path interposition chain (where both the malware and
// the dynamic-model guard live), USB interface board, PLC safety processor,
// and the physical plant. One Rig is one reproducible session.
package sim

import (
	"fmt"
	"time"

	"ravenguard/internal/console"
	"ravenguard/internal/control"
	"ravenguard/internal/dynamics"
	"ravenguard/internal/interpose"
	"ravenguard/internal/itp"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/mathx"
	"ravenguard/internal/motor"
	"ravenguard/internal/plc"
	"ravenguard/internal/robot"
	"ravenguard/internal/trajectory"
	"ravenguard/internal/usb"
)

// Hook is a write-chain wrapper that additionally receives the per-cycle
// encoder feedback — the shape of the paper's detector, which intercepts
// DAC commands *and* reads the same encoder stream the control software
// sees in order to keep its dynamic model synchronised.
type Hook interface {
	interpose.Wrapper
	// OnFeedback delivers this cycle's feedback frame and simulated time.
	OnFeedback(fb usb.Feedback, t float64)
}

// FeedbackGapObserver is an optional Hook extension: guards implementing it
// are told when a cycle's feedback frame was lost (undecodable), so they
// can resynchronise their model after the gap instead of misreading the
// next good frame as a one-cycle jump.
type FeedbackGapObserver interface {
	// OnFeedbackGap reports one lost feedback frame at simulated time t.
	OnFeedbackGap(t float64)
}

// InputHook may observe and mutate the operator input after it is received
// by the control software — the injection point of attack scenario A
// ("injection of unintended user inputs after they are received by the
// control software").
type InputHook func(t float64, in *control.Input)

// StepInfo is everything one simulation step produced, handed to observers.
type StepInfo struct {
	T        float64 // simulated time at the *end* of the step, seconds
	Input    control.Input
	Ctrl     control.Output
	BoardDAC [usb.NumChannels]int16 // what the board actually latched
	Feedback usb.Feedback           // what the controller saw this cycle
	TipTrue  mathx.Vec3             // plant ground-truth end-effector
	JposTrue kinematics.JointPos
	JvelTrue [kinematics.NumJoints]float64
	MposTrue kinematics.MotorPos
	MvelTrue [kinematics.NumJoints]float64
	PLCEStop bool
	Broken   bool // any cable snapped
	// FeedbackDropped reports that this cycle's feedback frame was
	// undecodable and the controller reused the previous good frame.
	FeedbackDropped bool
}

// Observer receives every step's info.
type Observer func(StepInfo)

// Config assembles a Rig.
type Config struct {
	Seed   int64
	Script console.Script
	Traj   trajectory.Trajectory

	// Control overrides; zero values select defaults.
	Control control.Config
	// Plant overrides; zero values select defaults. Seed is always taken
	// from Config.Seed+1 so plant noise differs from trajectory seeds.
	Plant robot.Config
	// PLCTimeout overrides the watchdog supervision window (0 = default).
	PLCTimeout float64

	// Preload are malicious wrappers loaded onto the write chain, first
	// entry resolving first (LD_PRELOAD order).
	Preload []interpose.Wrapper
	// Guards are defensive hooks appended below the preloads, closest to
	// the hardware.
	Guards []Hook
	// OnInput is the scenario-A injection point.
	OnInput InputHook
	// OnFeedbackRead may corrupt the encoder feedback after the hardware
	// produced it and before the control software consumes it — a
	// malicious wrapper around the read system call (Table I, "change
	// encoder feedback"). Guards see the true feedback: the paper places
	// the detector in trusted hardware below any preloaded library.
	OnFeedbackRead func(t float64, fb *usb.Feedback)
	// NoGravityFF disables the controller's gravity feedforward (used by
	// ablation experiments).
	NoGravityFF bool

	// ExternalInput, when set, replaces the built-in console emulator: the
	// rig reads operator packets from this receiver instead (e.g. a real
	// UDP receiver fed by a remote console). Script/Traj are then ignored.
	ExternalInput itp.Receiver
	// ExternalDuration bounds an externally-driven session in simulated
	// seconds (default 3600).
	ExternalDuration float64

	// WrapTransport, when set, decorates the operator-packet receiver the
	// rig reads from (the built-in console transport, or ExternalInput) —
	// the installation point for accidental transport faults such as
	// packet loss, duplication, reordering and delay (see internal/fault).
	WrapTransport func(r itp.Receiver) itp.Receiver
	// OnBoard, when set, is invoked with the assembled USB interface board
	// before the first step — the installation point for board-level fault
	// hooks (feedback-frame corruption, firmware stall; see internal/fault).
	OnBoard func(b *usb.Board)

	// Stateful lists extra stateful components installed via the closure
	// hooks above (OnInput, OnFeedbackRead, WrapTransport, OnBoard) so the
	// rig's Snapshot can capture them. Chain wrappers (Preload, Guards) that
	// implement Snapshotter are discovered automatically and must not be
	// listed here.
	Stateful []Snapshotter
}

// Rig is one assembled simulation session. Not safe for concurrent use.
type Rig struct {
	cfg     Config            //ravenlint:snapshot-ignore configuration; cfg.Stateful components are captured via the snapshotters walk
	cons    *console.Console  // nil when externally driven
	mem     *itp.MemTransport // built-in console transport (nil when external)
	trans   itp.Receiver      //ravenlint:snapshot-ignore transport wiring; its queue is Snapshot.Pending plus faulter snapshots
	chain   *interpose.Chain
	board   *usb.Board
	plc     *plc.PLC
	plant   *robot.Plant
	ctrl    *control.Controller
	guards  []Hook     //ravenlint:snapshot-ignore hook wiring; snapshotter guards are captured via the chain walk
	obs     []Observer //ravenlint:snapshot-ignore observer wiring, not simulation state
	t       float64
	lastIn  control.Input
	lastFb  usb.Feedback // last good (decodable) feedback frame
	fbDrops int          // undecodable feedback frames survived
	steps   int

	// inBuf and fbBuf back the per-step input/feedback values handed to
	// the OnInput/OnFeedbackRead hooks by pointer; as fields they keep
	// Step allocation-free (locals passed by pointer would escape).
	inBuf control.Input //ravenlint:snapshot-ignore per-step scratch, fully rewritten each step
	fbBuf usb.Feedback  //ravenlint:snapshot-ignore per-step scratch, fully rewritten each step

	// pending carries the control-phase results of a split step between
	// StepControl and FinishStep (see fleet.Worker).
	pending pendingStep //ravenlint:snapshot-ignore intra-step scratch; snapshots are taken at step boundaries
}

// FaultCounters aggregates the rig's graceful-degradation statistics: how
// often the pipeline absorbed a fault instead of crashing.
type FaultCounters struct {
	// FeedbackDrops counts cycles whose feedback frame was undecodable;
	// the controller reused the previous good frame.
	FeedbackDrops int
	// InputsSanitized counts non-finite operator-input fields the
	// controller zeroed before use.
	InputsSanitized int
	// BoardMalformed counts command frames the board rejected as
	// malformed (wrong length).
	BoardMalformed int
	// BoardStallDrops counts command frames a stalled board discarded.
	BoardStallDrops int
}

// New assembles a rig.
func New(cfg Config) (*Rig, error) {
	if cfg.Traj == nil {
		cfg.Traj = trajectory.Standard()[0]
	}
	if cfg.Script.TotalDuration() == 0 {
		cfg.Script = console.StandardScript(10)
	}
	if cfg.ExternalDuration == 0 {
		cfg.ExternalDuration = 3600
	}

	var (
		cons  *console.Console
		trans itp.Receiver
	)
	var mem *itp.MemTransport
	if cfg.ExternalInput != nil {
		trans = cfg.ExternalInput
	} else {
		mem = itp.NewMemTransport()
		trans = mem
		var err error
		cons, err = console.New(cfg.Script, cfg.Traj, mem)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if cfg.WrapTransport != nil {
		if trans = cfg.WrapTransport(trans); trans == nil {
			return nil, fmt.Errorf("sim: WrapTransport returned nil receiver")
		}
	}

	board := usb.NewBoard()
	chain := interpose.NewChain(func(buf []byte) error { return board.Receive(buf) })
	for _, g := range cfg.Guards {
		chain.Append(g)
	}
	for i := len(cfg.Preload) - 1; i >= 0; i-- {
		chain.Preload(cfg.Preload[i])
	}

	ctrl, err := control.NewController(cfg.Control, chain)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if !cfg.NoGravityFF {
		ctrl.SetGravity(nominalGravity())
	}

	plantCfg := cfg.Plant
	if plantCfg.Params == (dynamics.Params{}) {
		plantCfg.Params = dynamics.DefaultParams()
	}
	if plantCfg.Bank == (motor.Bank{}) {
		plantCfg.Bank = motor.DefaultBank()
	}
	if plantCfg.Seed == 0 {
		plantCfg.Seed = cfg.Seed + 1
	}
	plant, err := robot.NewPlant(plantCfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	r := &Rig{
		cfg:    cfg,
		cons:   cons,
		mem:    mem,
		trans:  trans,
		chain:  chain,
		board:  board,
		plc:    plc.New(durationFromSeconds(cfg.PLCTimeout)),
		plant:  plant,
		ctrl:   ctrl,
		guards: cfg.Guards,
	}
	// Guards that can trigger an emergency stop get wired to the PLC
	// latch: the paper's mitigation path puts the system into E-STOP.
	for _, g := range cfg.Guards {
		if es, ok := g.(interface{ SetEStop(func(cause string)) }); ok {
			es.SetEStop(func(cause string) { r.plc.ForceEStop(cause) })
		}
	}

	// Prime the encoder path so the controller's first feedback reflects
	// the true power-on pose rather than all-zero counts. The held frame
	// starts from the same pose, so a fault on the very first read
	// degrades to the power-on state instead of zero counts.
	board.SetEncoders(plant.EncoderCounts())
	r.lastFb = usb.Feedback{Encoder: plant.EncoderCounts()}
	if cfg.OnBoard != nil {
		cfg.OnBoard(board)
	}
	return r, nil
}

// durationFromSeconds converts simulated seconds to a time.Duration for the
// PLC's supervision arithmetic.
func durationFromSeconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// nominalGravity extracts the gravity feedforward table from the nominal
// dynamics parameters (the control software knows the design model, not the
// plant's perturbed reality).
func nominalGravity() control.GravityModel {
	p := dynamics.DefaultParams()
	var g control.GravityModel
	for i := 0; i < kinematics.NumJoints; i++ {
		g.Const[i] = p.Joints[i].GravConst
		g.Phase[i] = p.Joints[i].GravPhase
		g.Sin[i] = p.Joints[i].GravSin
	}
	return g
}

// Observe registers an observer invoked after every step.
func (r *Rig) Observe(o Observer) { r.obs = append(r.obs, o) }

// Controller exposes the control node (for experiment assertions).
func (r *Rig) Controller() *control.Controller { return r.ctrl }

// Plant exposes the physical plant (ground truth).
func (r *Rig) Plant() *robot.Plant { return r.plant }

// Chain exposes the write chain (for installing/removing wrappers mid-run).
func (r *Rig) Chain() *interpose.Chain { return r.chain }

// Board exposes the USB interface board.
func (r *Rig) Board() *usb.Board { return r.board }

// PLC exposes the safety processor.
func (r *Rig) PLC() *plc.PLC { return r.plc }

// FaultCounters returns the rig's graceful-degradation statistics.
func (r *Rig) FaultCounters() FaultCounters {
	_, malformed := r.board.Stats()
	return FaultCounters{
		FeedbackDrops:   r.fbDrops,
		InputsSanitized: r.ctrl.SanitizedInputs(),
		BoardMalformed:  malformed,
		BoardStallDrops: r.board.StallDrops(),
	}
}

// Time returns the simulated time in seconds.
func (r *Rig) Time() float64 { return r.t }

// Done reports whether the scripted session has ended (externally driven
// rigs end at ExternalDuration).
func (r *Rig) Done() bool {
	if r.cons == nil {
		return r.t >= r.cfg.ExternalDuration
	}
	return r.cons.Done()
}

// pendingStep carries what the control phase produced into the bookkeeping
// phase of a split step.
type pendingStep struct {
	out       control.Output
	fbDropped bool
}

// Step advances the whole system by one control period.
//
//ravenlint:noalloc
func (r *Rig) Step() (StepInfo, error) {
	const dt = control.Period
	if err := r.StepControl(); err != nil {
		return StepInfo{}, err
	}
	// 6. Physics: one control period of dynamics driven by whatever DACs
	// the board latched (post-attack values).
	r.plant.Step(r.board.DACs(), dt)
	return r.FinishStep(), nil
}

// StepControl runs the control half of one step — console, transport,
// feedback read, control cycle, PLC supervision, brake command — up to (but
// not including) the plant physics. After StepControl, advance the plant by
// one control period (Plant.Step, or a robot.LaneSet lane), then call
// FinishStep. Step is StepControl + Plant.Step + FinishStep; the fleet
// worker runs the split to step many rigs' plants in one fused
// integration.
//
//ravenlint:noalloc
func (r *Rig) StepControl() error {
	const dt = control.Period

	// 1. Console emits this cycle's ITP datagram (externally driven rigs
	// receive whatever arrived on the transport instead).
	if r.cons != nil {
		if _, err := r.cons.Tick(dt); err != nil {
			return err
		}
	}

	// 2. Control software receives the operator packet (or reuses the last
	// one on loss, as the real software holds state).
	if pkt, ok, err := r.trans.Recv(); err != nil {
		return err
	} else if ok {
		r.lastIn = control.Input{
			Delta:       pkt.Delta,
			OriDelta:    pkt.OriDelta,
			PedalDown:   pkt.PedalDown,
			StartButton: pkt.Start,
			EStopButton: pkt.EStop,
		}
	} else {
		// Stale command: motion deltas must not repeat, edge-flags clear.
		r.lastIn.Delta = mathx.Vec3{}
		r.lastIn.OriDelta = [3]float64{}
		r.lastIn.StartButton = false
		r.lastIn.EStopButton = false
	}
	in := &r.inBuf
	*in = r.lastIn

	// The physical start button also resets the PLC latch.
	if in.StartButton {
		r.plc.Reset()
	}

	// Scenario-A injection point: after receipt, before use.
	if r.cfg.OnInput != nil {
		r.cfg.OnInput(r.t, in)
	}

	// 3. Feedback the controller reads this cycle (written by the plant at
	// the end of the previous cycle). An undecodable frame no longer
	// aborts the session: the control software holds the last good frame
	// (stale-data semantics, matching the operator-packet path), counts
	// the drop, and guards are told about the gap so their models can
	// resynchronise on the next good frame.
	fbFrame := r.board.ReadFeedback()
	fb := &r.fbBuf
	var fbErr error
	*fb, fbErr = usb.DecodeFeedback(fbFrame)
	fbDropped := fbErr != nil
	if fbDropped {
		*fb = r.lastFb
		r.fbDrops++
		for _, g := range r.guards {
			if go_, ok := g.(FeedbackGapObserver); ok {
				go_.OnFeedbackGap(r.t)
			}
		}
	} else {
		r.lastFb = *fb
		for _, g := range r.guards {
			g.OnFeedback(*fb, r.t)
		}
	}
	if r.cfg.OnFeedbackRead != nil {
		r.cfg.OnFeedbackRead(r.t, fb)
	}

	// 4. Control cycle: kinematic chain, safety checks, USB write through
	// the interposition chain (malware, then guards, then the board).
	out := r.ctrl.Tick(*in, *fb, r.plc.EStopped())

	// 5. PLC supervises the relayed status byte; brakes per PLC.
	status, have := r.board.StatusByte()
	r.plc.Tick(status, have, durationFromSeconds(dt))
	r.plant.SetBrakes(r.plc.BrakesEngaged())

	r.pending = pendingStep{out: out, fbDropped: fbDropped}
	return nil
}

// FinishStep runs the bookkeeping half of one step, after the plant
// physics: encoder latch, clock advance, StepInfo assembly, observers. It
// must only be called after a matching StepControl.
//
//ravenlint:noalloc
func (r *Rig) FinishStep() StepInfo {
	const dt = control.Period
	r.board.SetEncoders(r.plant.EncoderCounts())

	r.t += dt
	r.steps++

	broken, _ := r.plant.CableBroken()
	info := StepInfo{
		T:        r.t,
		Input:    r.inBuf,
		Ctrl:     r.pending.out,
		BoardDAC: r.board.DACs(),
		Feedback: r.fbBuf,
		TipTrue:  r.plant.TipPosition(),
		JposTrue: r.plant.JointPos(),
		JvelTrue: r.plant.JointVel(),
		MposTrue: r.plant.MotorPos(),
		MvelTrue: r.plant.MotorVel(),
		PLCEStop: r.plc.EStopped(),
		Broken:   broken,

		FeedbackDropped: r.pending.fbDropped,
	}
	for _, o := range r.obs {
		o(info)
	}
	return info
}

// Run executes the whole scripted session (or until maxSteps, whichever is
// first; maxSteps <= 0 means no cap) and returns the number of steps run.
func (r *Rig) Run(maxSteps int) (int, error) {
	n := 0
	for !r.Done() {
		if maxSteps > 0 && n >= maxSteps {
			break
		}
		if _, err := r.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
