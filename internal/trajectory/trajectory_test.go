package trajectory

import (
	"math"
	"testing"

	"ravenguard/internal/mathx"
)

func all() []Trajectory {
	return []Trajectory{
		Circle{Radius: 0.01, Freq: 0.25},
		Line{Dir: mathx.Vec3{X: 1, Y: 1}, Amp: 0.012, Freq: 0.2},
		Lissajous{Amp: mathx.Vec3{X: 0.008, Y: 0.008, Z: 0.006},
			Freq: mathx.Vec3{X: 0.23, Y: 0.31, Z: 0.17}},
		Spiral{Radius: 0.008, Freq: 0.3, Rate: 0.001, Depth: 0.01},
		Rest{},
	}
}

func TestStartsNearZero(t *testing.T) {
	for _, tr := range all() {
		if d := tr.Pos(0).Norm(); d > 1e-9 {
			t.Errorf("%s: Pos(0) = %v m from origin", tr.Name(), d)
		}
	}
}

func TestBoundedDisplacement(t *testing.T) {
	// Teleop integrates these displacements on top of the home pose; they
	// must stay small enough to remain inside the workspace (< 25 mm).
	for _, tr := range all() {
		worst := 0.0
		for ts := 0.0; ts < 120; ts += 0.05 {
			if d := tr.Pos(ts).Norm(); d > worst {
				worst = d
			}
		}
		if worst > 0.025 {
			t.Errorf("%s: max displacement %.1f mm exceeds 25 mm", tr.Name(), worst*1e3)
		}
	}
}

func TestSurgicalTipSpeeds(t *testing.T) {
	// Tip speeds must stay in a plausible surgical band (< 60 mm/s).
	for _, tr := range all() {
		worst := 0.0
		dt := 1e-3
		for ts := 0.0; ts < 30; ts += 0.01 {
			v := tr.Pos(ts+dt).Sub(tr.Pos(ts)).Norm() / dt
			if v > worst {
				worst = v
			}
		}
		if worst > 0.060 {
			t.Errorf("%s: max tip speed %.1f mm/s exceeds 60 mm/s", tr.Name(), worst*1e3)
		}
	}
}

func TestContinuity(t *testing.T) {
	// No jumps: successive millisecond samples move < 0.25 mm.
	for _, tr := range all() {
		for ts := 0.0; ts < 20; ts += 1e-3 {
			step := tr.Pos(ts + 1e-3).Sub(tr.Pos(ts)).Norm()
			if step > 0.00025 {
				t.Fatalf("%s: %v m step at t=%v", tr.Name(), step, ts)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, tr := range all() {
		a, b := tr.Pos(12.345), tr.Pos(12.345)
		if a != b {
			t.Errorf("%s: nondeterministic Pos", tr.Name())
		}
	}
}

func TestCircleRadius(t *testing.T) {
	c := Circle{Radius: 0.01, Freq: 0.25}
	// Max displacement from start is the diameter.
	worst := 0.0
	for ts := 0.0; ts < 4; ts += 0.01 {
		if d := c.Pos(ts).Norm(); d > worst {
			worst = d
		}
	}
	if math.Abs(worst-0.02) > 1e-3 {
		t.Fatalf("circle max displacement = %v, want ~diameter 0.02", worst)
	}
}

func TestSpiralDepthCap(t *testing.T) {
	s := Spiral{Radius: 0.005, Freq: 0.3, Rate: 0.002, Depth: 0.008}
	if z := s.Pos(100).Z; math.Abs(z+0.008) > 1e-9 {
		t.Fatalf("spiral depth at t=100 is %v, want capped at -0.008", z)
	}
}

func TestStandardReturnsTwo(t *testing.T) {
	st := Standard()
	if len(st) != 2 {
		t.Fatalf("Standard() returned %d trajectories, want the paper's 2", len(st))
	}
	if st[0].Name() == st[1].Name() {
		t.Fatal("training trajectories must differ")
	}
}
