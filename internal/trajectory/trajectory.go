// Package trajectory generates the surgical-motion profiles the master
// console emulator replays. The paper's evaluation framework replaced the
// human operator with "previously collected trajectories of surgical
// movements"; with no such recordings available we synthesise motions with
// the same character — smooth, low-speed (5–20 mm/s tip speed) — as
// deterministic functions of time, so every run is reproducible (run to
// run variability comes from the plant's seeded disturbance noise).
//
// A Trajectory maps time to a tip displacement relative to the pose at
// which teleoperation began; the console differentiates it into the
// per-cycle incremental deltas the ITP protocol carries.
package trajectory

import (
	"fmt"
	"math"

	"ravenguard/internal/mathx"
)

// Trajectory is a time-parameterised tip displacement (meters) from the
// teleoperation start pose. Implementations must be deterministic:
// Pos(t) depends only on t.
type Trajectory interface {
	// Pos returns the displacement at time t seconds. Pos(0) should be
	// (near) zero so teleoperation starts without a step.
	Pos(t float64) mathx.Vec3
	// Name identifies the profile in experiment reports.
	Name() string
}

// Circle traces a circle of Radius meters in the XY plane at Freq Hz,
// a stand-in for circular dissection motions.
type Circle struct {
	Radius float64
	Freq   float64
}

var _ Trajectory = Circle{}

// Pos implements Trajectory.
func (c Circle) Pos(t float64) mathx.Vec3 {
	w := 2 * math.Pi * c.Freq * t
	// Offset so Pos(0) = 0: circle around (-R, 0).
	return mathx.Vec3{
		X: c.Radius * (math.Cos(w) - 1),
		Y: c.Radius * math.Sin(w),
	}
}

// Name implements Trajectory.
func (c Circle) Name() string { return fmt.Sprintf("circle(r=%.0fmm)", c.Radius*1e3) }

// Line sweeps back and forth along Dir with amplitude Amp meters at Freq
// Hz (sinusoidal), a stand-in for retraction strokes.
type Line struct {
	Dir  mathx.Vec3
	Amp  float64
	Freq float64
}

var _ Trajectory = Line{}

// Pos implements Trajectory.
func (l Line) Pos(t float64) mathx.Vec3 {
	s := l.Amp * math.Sin(2*math.Pi*l.Freq*t)
	return l.Dir.Unit().Scale(s)
}

// Name implements Trajectory.
func (l Line) Name() string { return fmt.Sprintf("line(a=%.0fmm)", l.Amp*1e3) }

// Lissajous weaves a 3-D Lissajous figure, a stand-in for suturing loops:
// incommensurate frequencies per axis give non-repeating coverage.
type Lissajous struct {
	Amp  mathx.Vec3 // per-axis amplitude, meters
	Freq mathx.Vec3 // per-axis frequency, Hz
}

var _ Trajectory = Lissajous{}

// Pos implements Trajectory.
func (l Lissajous) Pos(t float64) mathx.Vec3 {
	return mathx.Vec3{
		X: l.Amp.X * math.Sin(2*math.Pi*l.Freq.X*t),
		Y: l.Amp.Y * math.Sin(2*math.Pi*l.Freq.Y*t),
		Z: l.Amp.Z * (math.Cos(2*math.Pi*l.Freq.Z*t) - 1),
	}
}

// Name implements Trajectory.
func (l Lissajous) Name() string { return "lissajous" }

// Spiral descends along -Z while circling, a stand-in for tissue
// dissection at increasing depth.
type Spiral struct {
	Radius float64 // circle radius, meters
	Freq   float64 // revolutions per second
	Rate   float64 // descent, meters per second
	Depth  float64 // maximum descent, meters
}

var _ Trajectory = Spiral{}

// Pos implements Trajectory.
func (s Spiral) Pos(t float64) mathx.Vec3 {
	w := 2 * math.Pi * s.Freq * t
	z := s.Rate * t
	if z > s.Depth {
		z = s.Depth
	}
	return mathx.Vec3{
		X: s.Radius * (math.Cos(w) - 1),
		Y: s.Radius * math.Sin(w),
		Z: -z,
	}
}

// Name implements Trajectory.
func (s Spiral) Name() string { return "spiral" }

// OriProfile is a time-parameterised instrument-wrist motion: displacement
// of (roll, wrist pitch, grasp) in radians from the teleoperation start
// pose. Like Trajectory, implementations must be deterministic.
type OriProfile interface {
	// Ori returns the instrument-joint displacement at time t seconds.
	Ori(t float64) [3]float64
	// Name identifies the profile.
	Name() string
}

// WristWeave is a smooth periodic wrist motion: the surgeon rolls and
// pitches the instrument while working the grasper — the traffic that
// makes the wrist DAC channels flicker in the paper's Figure 5.
type WristWeave struct {
	RollAmp, PitchAmp, GraspAmp float64 // radians
	Freq                        float64 // Hz
}

var _ OriProfile = WristWeave{}

// Ori implements OriProfile.
func (wv WristWeave) Ori(t float64) [3]float64 {
	w := 2 * math.Pi * wv.Freq * t
	return [3]float64{
		wv.RollAmp * math.Sin(w),
		wv.PitchAmp * math.Sin(1.31*w+0.4),
		wv.GraspAmp * 0.5 * (1 - math.Cos(0.77*w)),
	}
}

// Name implements OriProfile.
func (wv WristWeave) Name() string { return "wrist-weave" }

// StandardWrist returns the default instrument motion used in sessions.
func StandardWrist() OriProfile {
	return WristWeave{RollAmp: 0.6, PitchAmp: 0.35, GraspAmp: 0.5, Freq: 0.15}
}

// Rest holds perfectly still; useful as a control workload.
type Rest struct{}

var _ Trajectory = Rest{}

// Pos implements Trajectory.
func (Rest) Pos(float64) mathx.Vec3 { return mathx.Vec3{} }

// Name implements Trajectory.
func (Rest) Name() string { return "rest" }

// Standard returns the two training trajectories the threshold learner uses
// (the paper trained on "two different trajectories containing sufficient
// variability"), plus extras for evaluation diversity.
func Standard() []Trajectory {
	return []Trajectory{
		Circle{Radius: 0.010, Freq: 0.1},
		Lissajous{
			Amp:  mathx.Vec3{X: 0.008, Y: 0.008, Z: 0.006},
			Freq: mathx.Vec3{X: 0.11, Y: 0.13, Z: 0.07},
		},
	}
}
