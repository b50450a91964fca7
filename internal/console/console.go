// Package console implements the master-console emulator of the paper's
// simulation framework (Figure 7a): it "mimics the teleoperation console
// functionality by generating user input packets based on previously
// collected trajectories of surgical movements" and streams them to the
// control software over the ITP transport.
//
// A Script describes the session timeline — when the start button is
// pressed, when the foot pedal goes down and comes up — so different runs
// exercise the operational state machine differently (Figure 6's nine runs).
package console

import (
	"fmt"

	"ravenguard/internal/itp"
	"ravenguard/internal/trajectory"
)

// Segment is one pedal phase of a session.
type Segment struct {
	// Duration of the segment, seconds.
	Duration float64
	// PedalDown during this segment.
	PedalDown bool
}

// Script is the operator's session timeline. The console presses the start
// button at StartAt, waits HomingWait for initialisation, then plays the
// Segments in order. After the last segment it keeps the pedal up.
//
// EStopAt/RestartAt model an operator slapping the emergency-stop button
// mid-procedure and restarting: at EStopAt the console sends the E-STOP
// flag (and stops driving), at RestartAt it presses start again and, after
// another HomingWait, resumes the remaining segments.
type Script struct {
	StartAt    float64 // press the start button at this time, seconds
	HomingWait float64 // wait after start before the first segment
	Segments   []Segment
	EStopAt    float64 // press the emergency stop at this time (0 = never)
	RestartAt  float64 // press start again at this time (requires EStopAt)
}

// Validate rejects non-physical scripts.
func (s Script) Validate() error {
	if s.StartAt < 0 || s.HomingWait < 0 {
		return fmt.Errorf("console: negative script times")
	}
	for i, seg := range s.Segments {
		if seg.Duration <= 0 {
			return fmt.Errorf("console: segment %d duration %v must be > 0", i, seg.Duration)
		}
	}
	if s.EStopAt < 0 || s.RestartAt < 0 {
		return fmt.Errorf("console: negative emergency-stop times")
	}
	if s.EStopAt > 0 && s.RestartAt > 0 && s.RestartAt <= s.EStopAt {
		return fmt.Errorf("console: restart at %v not after emergency stop at %v", s.RestartAt, s.EStopAt)
	}
	if s.RestartAt > 0 && s.EStopAt == 0 {
		return fmt.Errorf("console: restart scheduled without an emergency stop")
	}
	return nil
}

// TotalDuration returns the full session length in seconds, including the
// pause a mid-session emergency stop and restart inserts.
func (s Script) TotalDuration() float64 {
	t := s.StartAt + s.HomingWait
	for _, seg := range s.Segments {
		t += seg.Duration
	}
	if s.EStopAt > 0 && s.RestartAt > 0 {
		t += (s.RestartAt - s.EStopAt) + s.HomingWait
	}
	return t
}

// homed reports whether a dt tick starting at session time t falls after
// homing, where the script's segments may put the pedal down. The tick is
// judged at its midpoint: accumulated float time sits within one ulp of
// the boundary, and the midpoint keeps each tick firmly on one side.
func (s Script) homed(t, dt float64) bool {
	return t+dt/2 >= s.StartAt+s.HomingWait
}

// HomingTicks returns how many dt ticks a console playing s emits before
// the first one that can carry a pedal-down datagram: the start-up and
// homing ticks, which every session of the script and seed shares whatever
// its trajectory.
func (s Script) HomingTicks(dt float64) int {
	n, t := 0, 0.0
	for !s.homed(t, dt) {
		t += dt
		n++
	}
	return n
}

// StandardScript returns a typical session: start immediately, wait 2.5 s
// for homing, then a single teleoperation phase of the given length.
func StandardScript(teleop float64) Script {
	return Script{
		StartAt:    0.05,
		HomingWait: 2.5,
		Segments:   []Segment{{Duration: teleop, PedalDown: true}},
	}
}

// Console replays a trajectory according to a script. Not safe for
// concurrent use.
type Console struct {
	script Script                //ravenlint:snapshot-ignore configuration, fixed after New
	traj   trajectory.Trajectory //ravenlint:snapshot-ignore configuration, fixed after New
	ori    trajectory.OriProfile //ravenlint:snapshot-ignore wrist profile, set during assembly
	out    itp.Sender            //ravenlint:snapshot-ignore transport wiring; queued datagrams captured by the rig

	seq       uint32
	t         float64 // session time
	telT      float64 // accumulated pedal-down (trajectory) time
	segOffset float64 // accumulated segment-eligible time
	started   bool
	estopSent bool
	restarted bool
}

// New builds a console streaming into out. The instrument wrist follows
// the standard weave profile.
func New(script Script, traj trajectory.Trajectory, out itp.Sender) (*Console, error) {
	if err := script.Validate(); err != nil {
		return nil, err
	}
	if traj == nil || out == nil {
		return nil, fmt.Errorf("console: nil trajectory or transport")
	}
	return &Console{script: script, traj: traj, ori: trajectory.StandardWrist(), out: out}, nil
}

// segmentPedal reports the pedal state at the given accumulated eligible
// time offset into the segment schedule.
func (c *Console) segmentPedal(off float64) bool {
	for _, seg := range c.script.Segments {
		if off < seg.Duration {
			return seg.PedalDown
		}
		off -= seg.Duration
	}
	return false
}

// inEStopPause reports whether the script's emergency-stop window covers
// session time t (from the stop until homing completes after the restart).
func (c *Console) inEStopPause(t float64) bool {
	if c.script.EStopAt <= 0 || t < c.script.EStopAt {
		return false
	}
	if c.script.RestartAt <= 0 {
		return true // stopped for good
	}
	return t < c.script.RestartAt+c.script.HomingWait
}

// Tick advances the console by dt seconds and emits one ITP datagram (the
// console streams at the control rate). It returns the packet sent.
func (c *Console) Tick(dt float64) (itp.Packet, error) {
	c.seq++
	p := itp.Packet{Seq: c.seq}

	switch {
	case !c.started && c.t >= c.script.StartAt:
		p.Start = true
		c.started = true
	case c.script.EStopAt > 0 && !c.estopSent && c.t >= c.script.EStopAt:
		p.EStop = true
		c.estopSent = true
	case c.estopSent && !c.restarted && c.script.RestartAt > 0 && c.t >= c.script.RestartAt:
		p.Start = true
		c.restarted = true
	}

	// Evaluate schedule positions at the tick midpoint: accumulated float
	// time sits within one ulp of segment boundaries, and the midpoint
	// keeps each tick firmly inside the segment it belongs to.
	eligible := c.script.homed(c.t, dt) && !c.inEStopPause(c.t+dt/2)
	if eligible && c.segmentPedal(c.segOffset+dt/2) {
		p.PedalDown = true
		// Differentiate the trajectory over the pedal-down clock, so
		// lifting the pedal pauses the motion rather than skipping ahead.
		from := c.traj.Pos(c.telT)
		to := c.traj.Pos(c.telT + dt)
		p.Delta = to.Sub(from)
		oriFrom := c.ori.Ori(c.telT)
		oriTo := c.ori.Ori(c.telT + dt)
		for i := range p.OriDelta {
			p.OriDelta[i] = oriTo[i] - oriFrom[i]
		}
		c.telT += dt
	}
	if eligible {
		c.segOffset += dt
	}

	c.t += dt
	if err := c.out.Send(p); err != nil {
		return itp.Packet{}, fmt.Errorf("console: %w", err)
	}
	return p, nil
}

// State is the console's mutable session state, for checkpoint/restore.
// The script and trajectory are configuration; a fork restores State into a
// console built from the same script.
type State struct {
	Seq       uint32
	T         float64
	TelT      float64
	SegOffset float64
	Started   bool
	EStopSent bool
	Restarted bool
}

// CaptureState returns the console's mutable state.
func (c *Console) CaptureState() State {
	return State{
		Seq: c.seq, T: c.t, TelT: c.telT, SegOffset: c.segOffset,
		Started: c.started, EStopSent: c.estopSent, Restarted: c.restarted,
	}
}

// RestoreState rewinds the console to a captured state.
func (c *Console) RestoreState(s State) {
	c.seq, c.t, c.telT, c.segOffset = s.Seq, s.T, s.TelT, s.SegOffset
	c.started, c.estopSent, c.restarted = s.Started, s.EStopSent, s.Restarted
}

// Time returns the console's session clock.
func (c *Console) Time() float64 { return c.t }

// Done reports whether the scripted session is over.
func (c *Console) Done() bool { return c.t >= c.script.TotalDuration() }
