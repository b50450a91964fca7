package console

import (
	"math"
	"testing"

	"ravenguard/internal/itp"
	"ravenguard/internal/trajectory"
)

func drain(t *testing.T, tr *itp.MemTransport) []itp.Packet {
	t.Helper()
	var out []itp.Packet
	for {
		p, ok, err := tr.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

func runSession(t *testing.T, script Script, traj trajectory.Trajectory) []itp.Packet {
	t.Helper()
	tr := itp.NewMemTransport()
	c, err := New(script, traj, tr)
	if err != nil {
		t.Fatal(err)
	}
	for !c.Done() {
		if _, err := c.Tick(1e-3); err != nil {
			t.Fatal(err)
		}
	}
	return drain(t, tr)
}

func TestStartButtonSentOnce(t *testing.T) {
	pkts := runSession(t, StandardScript(1), trajectory.Rest{})
	starts := 0
	for _, p := range pkts {
		if p.Start {
			starts++
		}
	}
	if starts != 1 {
		t.Fatalf("start button pressed %d times, want 1", starts)
	}
}

func TestPedalTimeline(t *testing.T) {
	script := Script{
		StartAt:    0.05,
		HomingWait: 1.0,
		Segments: []Segment{
			{Duration: 0.5, PedalDown: true},
			{Duration: 0.25, PedalDown: false},
			{Duration: 0.5, PedalDown: true},
		},
	}
	pkts := runSession(t, script, trajectory.Rest{})
	// Pedal must be up before StartAt+HomingWait.
	for i, p := range pkts {
		tm := float64(i+1) * 1e-3
		if tm < 1.04 && p.PedalDown {
			t.Fatalf("pedal down at t=%.3f, before teleop begins", tm)
		}
	}
	// Count pedal-down packets: 0.5 + 0.5 seconds at 1 kHz = ~1000.
	down := 0
	for _, p := range pkts {
		if p.PedalDown {
			down++
		}
	}
	if down < 950 || down > 1050 {
		t.Fatalf("pedal-down packets = %d, want ~1000", down)
	}
}

func TestDeltasIntegrateToTrajectory(t *testing.T) {
	traj := trajectory.Circle{Radius: 0.01, Freq: 0.25}
	pkts := runSession(t, StandardScript(2), traj)
	sumX, sumY := 0.0, 0.0
	for _, p := range pkts {
		sumX += p.Delta.X
		sumY += p.Delta.Y
	}
	// Sum of deltas over 2 s of pedal-down equals Pos(2)-Pos(0).
	want := traj.Pos(2)
	if math.Abs(sumX-want.X) > 1e-9 || math.Abs(sumY-want.Y) > 1e-9 {
		t.Fatalf("integrated deltas (%v,%v), want (%v,%v)", sumX, sumY, want.X, want.Y)
	}
}

func TestPedalUpPausesTrajectory(t *testing.T) {
	// With a pause in the middle, the trajectory clock stops: total
	// integrated motion equals Pos(totalPedalDownTime).
	traj := trajectory.Circle{Radius: 0.01, Freq: 0.25}
	script := Script{
		StartAt:    0.05,
		HomingWait: 0.5,
		Segments: []Segment{
			{Duration: 1, PedalDown: true},
			{Duration: 3, PedalDown: false},
			{Duration: 1, PedalDown: true},
		},
	}
	pkts := runSession(t, script, traj)
	var sum float64
	for _, p := range pkts {
		sum += p.Delta.Y
	}
	want := traj.Pos(2).Y // 2 s of pedal-down total
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("integrated Y = %v, want %v", sum, want)
	}
}

func TestNoDeltaWhilePedalUp(t *testing.T) {
	pkts := runSession(t, StandardScript(1), trajectory.Circle{Radius: 0.01, Freq: 0.25})
	for i, p := range pkts {
		if !p.PedalDown && p.Delta.Norm() != 0 {
			t.Fatalf("packet %d: delta %v while pedal up", i, p.Delta)
		}
	}
}

func TestSequenceMonotone(t *testing.T) {
	pkts := runSession(t, StandardScript(1), trajectory.Rest{})
	for i := 1; i < len(pkts); i++ {
		if pkts[i].Seq != pkts[i-1].Seq+1 {
			t.Fatalf("seq gap at %d: %d -> %d", i, pkts[i-1].Seq, pkts[i].Seq)
		}
	}
}

func TestScriptValidate(t *testing.T) {
	bad := []Script{
		{StartAt: -1},
		{HomingWait: -0.5},
		{Segments: []Segment{{Duration: 0, PedalDown: true}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("script %d accepted", i)
		}
	}
	if err := StandardScript(10).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsNil(t *testing.T) {
	tr := itp.NewMemTransport()
	if _, err := New(StandardScript(1), nil, tr); err == nil {
		t.Fatal("nil trajectory accepted")
	}
	if _, err := New(StandardScript(1), trajectory.Rest{}, nil); err == nil {
		t.Fatal("nil transport accepted")
	}
}

func TestTotalDuration(t *testing.T) {
	s := StandardScript(10)
	want := 0.05 + 2.5 + 10
	if got := s.TotalDuration(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TotalDuration = %v, want %v", got, want)
	}
}

func TestHomingTicksPrecedeFirstPedalDown(t *testing.T) {
	// The first pedal-down datagram is the one right after the homing
	// ticks, for the standard script and for one whose boundary is not a
	// whole number of ticks.
	for _, script := range []Script{
		StandardScript(1),
		{StartAt: 0.0173, HomingWait: 0.3, Segments: []Segment{{Duration: 0.5, PedalDown: true}}},
	} {
		pkts := runSession(t, script, trajectory.Circle{Radius: 0.01, Freq: 0.25})
		first := -1
		for i, p := range pkts {
			if p.PedalDown {
				first = i
				break
			}
		}
		if got := script.HomingTicks(1e-3); got != first {
			t.Fatalf("%+v: HomingTicks = %d, first pedal-down packet is %d", script, got, first)
		}
	}
}
