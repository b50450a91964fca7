// Package record captures and replays teleoperation sessions. The paper's
// master-console emulator "generat[es] user input packets based on
// previously collected trajectories of surgical movements made by a human
// operator"; this package provides the collection half — recording the
// operator-input stream and the robot's response from a live session —
// and the replay half: turning a recording back into the trajectory and
// session script the console emulator consumes, so captured procedures
// can be re-run under attack deterministically.
package record

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ravenguard/internal/console"
	"ravenguard/internal/control"
	"ravenguard/internal/mathx"
	"ravenguard/internal/sim"
	"ravenguard/internal/statemachine"
	"ravenguard/internal/trajectory"
)

// FormatVersion identifies the on-disk recording format.
const FormatVersion = 1

// Header is the first JSON line of a recording.
type Header struct {
	Version int     `json:"version"`
	Period  float64 `json:"period_s"`
	Label   string  `json:"label,omitempty"`
}

// Tick is one control cycle's recorded data.
type Tick struct {
	T         float64    `json:"t"`
	Pedal     bool       `json:"pedal"`
	Start     bool       `json:"start,omitempty"`
	Delta     [3]float64 `json:"delta"`
	OriDelta  [3]float64 `json:"ori,omitempty"`
	TipX      float64    `json:"tip_x"`
	TipY      float64    `json:"tip_y"`
	TipZ      float64    `json:"tip_z"`
	State     string     `json:"state"`
	DAC       [3]int16   `json:"dac"`
	PLCEStop  bool       `json:"estop,omitempty"`
	GuardNote string     `json:"note,omitempty"`
}

// Recording is a full captured session.
type Recording struct {
	Header Header
	Ticks  []Tick
}

// Recorder accumulates a session; attach Observe to a rig.
type Recorder struct {
	rec Recording
}

// NewRecorder starts an empty recording with the given label.
func NewRecorder(label string) *Recorder {
	return &Recorder{rec: Recording{Header: Header{
		Version: FormatVersion,
		Period:  control.Period,
		Label:   label,
	}}}
}

// Observe returns the observer to register on a rig.
func (r *Recorder) Observe() sim.Observer {
	return func(si sim.StepInfo) {
		r.rec.Ticks = append(r.rec.Ticks, Tick{
			T:        si.T,
			Pedal:    si.Input.PedalDown,
			Start:    si.Input.StartButton,
			Delta:    [3]float64{si.Input.Delta.X, si.Input.Delta.Y, si.Input.Delta.Z},
			OriDelta: si.Input.OriDelta,
			TipX:     si.TipTrue.X,
			TipY:     si.TipTrue.Y,
			TipZ:     si.TipTrue.Z,
			State:    si.Ctrl.State.String(),
			DAC:      [3]int16{si.Ctrl.DAC[0], si.Ctrl.DAC[1], si.Ctrl.DAC[2]},
			PLCEStop: si.PLCEStop,
		})
	}
}

// Recording returns the captured session.
func (r *Recorder) Recording() Recording { return r.rec }

// Write serialises the recording as JSON lines: a header line followed by
// one line per tick.
func (rec Recording) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(rec.Header); err != nil {
		return fmt.Errorf("record: header: %w", err)
	}
	for i, tk := range rec.Ticks {
		if err := enc.Encode(tk); err != nil {
			return fmt.Errorf("record: tick %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Save writes the recording to a file.
func (rec Recording) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if err := rec.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a JSONL recording.
func Read(r io.Reader) (Recording, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var rec Recording
	if err := dec.Decode(&rec.Header); err != nil {
		return Recording{}, fmt.Errorf("record: header: %w", err)
	}
	if rec.Header.Version != FormatVersion {
		return Recording{}, fmt.Errorf("record: unsupported version %d", rec.Header.Version)
	}
	if rec.Header.Period <= 0 {
		return Recording{}, fmt.Errorf("record: non-positive period %v", rec.Header.Period)
	}
	for {
		var tk Tick
		if err := dec.Decode(&tk); err == io.EOF {
			break
		} else if err != nil {
			return Recording{}, fmt.Errorf("record: tick %d: %w", len(rec.Ticks), err)
		}
		rec.Ticks = append(rec.Ticks, tk)
	}
	return rec, nil
}

// Load reads a recording from a file.
func Load(path string) (Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return Recording{}, fmt.Errorf("record: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Script reconstructs the operator's session timeline (start button and
// pedal segments) from the recording, suitable for console.New.
func (rec Recording) Script() (console.Script, error) {
	if len(rec.Ticks) == 0 {
		return console.Script{}, fmt.Errorf("record: empty recording")
	}
	dt := rec.Header.Period
	var s console.Script
	startSeen := false
	for _, tk := range rec.Ticks {
		if tk.Start {
			s.StartAt = tk.T
			startSeen = true
			break
		}
	}
	if !startSeen {
		return console.Script{}, fmt.Errorf("record: recording has no start-button press")
	}

	// First pedal-down marks the end of the homing wait.
	firstPedal := -1.0
	for _, tk := range rec.Ticks {
		if tk.Pedal {
			firstPedal = tk.T
			break
		}
	}
	if firstPedal < 0 {
		return console.Script{}, fmt.Errorf("record: recording never reaches teleoperation")
	}
	s.HomingWait = firstPedal - s.StartAt

	// Segment the pedal timeline from there on.
	cur := console.Segment{PedalDown: true}
	for _, tk := range rec.Ticks {
		if tk.T < firstPedal {
			continue
		}
		if tk.Pedal == cur.PedalDown {
			cur.Duration += dt
			continue
		}
		s.Segments = append(s.Segments, cur)
		cur = console.Segment{PedalDown: tk.Pedal, Duration: dt}
	}
	if cur.Duration > 0 {
		s.Segments = append(s.Segments, cur)
	}
	return s, nil
}

// Trajectory builds a replayable tip-motion profile from the recorded
// operator deltas: the displacement after t seconds of pedal-down time.
// It implements trajectory.Trajectory.
type Trajectory struct {
	name string
	dt   float64
	// cum[i] is the cumulative displacement after i pedal-down ticks.
	cum []mathx.Vec3
	// oriCum[i] likewise for the instrument joints.
	oriCum [][3]float64
}

var (
	_ trajectory.Trajectory = (*Trajectory)(nil)
	_ trajectory.OriProfile = (*Trajectory)(nil)
)

// Trajectory extracts the replayable motion from the recording.
func (rec Recording) Trajectory() (*Trajectory, error) {
	if len(rec.Ticks) == 0 {
		return nil, fmt.Errorf("record: empty recording")
	}
	tr := &Trajectory{
		name: fmt.Sprintf("replay(%s)", rec.Header.Label),
		dt:   rec.Header.Period,
		cum:  []mathx.Vec3{{}},
	}
	tr.oriCum = [][3]float64{{}}
	var acc mathx.Vec3
	var oriAcc [3]float64
	for _, tk := range rec.Ticks {
		if !tk.Pedal {
			continue
		}
		acc = acc.Add(mathx.Vec3{X: tk.Delta[0], Y: tk.Delta[1], Z: tk.Delta[2]})
		for i := range oriAcc {
			oriAcc[i] += tk.OriDelta[i]
		}
		tr.cum = append(tr.cum, acc)
		tr.oriCum = append(tr.oriCum, oriAcc)
	}
	if len(tr.cum) < 2 {
		return nil, fmt.Errorf("record: recording has no pedal-down motion")
	}
	return tr, nil
}

// Pos implements trajectory.Trajectory: displacement after t seconds of
// pedal-down time, linearly interpolated and clamped at the recording end.
func (tr *Trajectory) Pos(t float64) mathx.Vec3 {
	idx, frac := tr.locate(t)
	if idx >= len(tr.cum)-1 {
		return tr.cum[len(tr.cum)-1]
	}
	a, b := tr.cum[idx], tr.cum[idx+1]
	return a.Add(b.Sub(a).Scale(frac))
}

// Ori implements trajectory.OriProfile.
func (tr *Trajectory) Ori(t float64) [3]float64 {
	idx, frac := tr.locate(t)
	if idx >= len(tr.oriCum)-1 {
		return tr.oriCum[len(tr.oriCum)-1]
	}
	var out [3]float64
	a, b := tr.oriCum[idx], tr.oriCum[idx+1]
	for i := range out {
		out[i] = a[i] + (b[i]-a[i])*frac
	}
	return out
}

// locate returns the tick index at or before t and the fraction past it.
// The index is clamped to the last tick in float, before the conversion:
// a recorded period can be small enough (or t large enough) that t/dt
// overflows int.
func (tr *Trajectory) locate(t float64) (int, float64) {
	if t <= 0 {
		return 0, 0
	}
	ticks := t / tr.dt
	if last := len(tr.cum) - 1; !(ticks < float64(last)) {
		return last, 0
	}
	idx := int(ticks)
	return idx, ticks - float64(idx)
}

// Name implements trajectory.Trajectory.
func (tr *Trajectory) Name() string { return tr.name }

// Duration returns the pedal-down length of the replay in seconds.
func (tr *Trajectory) Duration() float64 {
	return float64(len(tr.cum)-1) * tr.dt
}

// Capture runs one session and records it — a convenience for building
// replay corpora.
func Capture(cfg sim.Config, label string) (Recording, error) {
	rig, err := sim.New(cfg)
	if err != nil {
		return Recording{}, err
	}
	rec := NewRecorder(label)
	rig.Observe(rec.Observe())
	if _, err := rig.Run(0); err != nil {
		return Recording{}, err
	}
	if rig.Controller().State() == statemachine.EStop {
		rec.rec.Header.Label += " (ended in E-STOP)"
	}
	return rec.Recording(), nil
}
