package record

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ravenguard/internal/console"
	"ravenguard/internal/sim"
	"ravenguard/internal/trajectory"
)

func capture(t *testing.T) Recording {
	t.Helper()
	rec, err := Capture(sim.Config{
		Seed:   301,
		Script: console.StandardScript(4),
		Traj:   trajectory.Standard()[0],
	}, "test-session")
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestCaptureRecordsTicks(t *testing.T) {
	rec := capture(t)
	if len(rec.Ticks) < 6000 {
		t.Fatalf("recorded %d ticks, want a full session", len(rec.Ticks))
	}
	if rec.Header.Period != 1e-3 {
		t.Fatalf("period = %v", rec.Header.Period)
	}
	starts := 0
	for _, tk := range rec.Ticks {
		if tk.Start {
			starts++
		}
	}
	if starts != 1 {
		t.Fatalf("start pressed %d times in recording", starts)
	}
}

func TestSerialisationRoundTrip(t *testing.T) {
	rec := capture(t)
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header != rec.Header {
		t.Fatalf("header round trip: %+v vs %+v", back.Header, rec.Header)
	}
	if len(back.Ticks) != len(rec.Ticks) {
		t.Fatalf("ticks %d vs %d", len(back.Ticks), len(rec.Ticks))
	}
	if back.Ticks[5000] != rec.Ticks[5000] {
		t.Fatalf("tick 5000 differs: %+v vs %+v", back.Ticks[5000], rec.Ticks[5000])
	}
}

func TestSaveLoad(t *testing.T) {
	rec := capture(t)
	path := t.TempDir() + "/session.jsonl"
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Ticks) != len(rec.Ticks) {
		t.Fatalf("ticks %d vs %d", len(back.Ticks), len(rec.Ticks))
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Read(strings.NewReader(`{"version":99,"period_s":0.001}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := Read(strings.NewReader(`{"version":1,"period_s":0}`)); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestScriptReconstruction(t *testing.T) {
	script := console.Script{
		StartAt:    0.05,
		HomingWait: 2.5,
		Segments: []console.Segment{
			{Duration: 2, PedalDown: true},
			{Duration: 1, PedalDown: false},
			{Duration: 1.5, PedalDown: true},
		},
	}
	rec, err := Capture(sim.Config{Seed: 302, Script: script}, "scripted")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.Script()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != 3 {
		t.Fatalf("segments = %d, want 3", len(got.Segments))
	}
	for i, seg := range got.Segments {
		want := script.Segments[i]
		if seg.PedalDown != want.PedalDown {
			t.Fatalf("segment %d pedal = %v", i, seg.PedalDown)
		}
		if math.Abs(seg.Duration-want.Duration) > 0.05 {
			t.Fatalf("segment %d duration %v, want ~%v", i, seg.Duration, want.Duration)
		}
	}
	// The reconstructed homing wait covers homing (2 s) and sits near the
	// scripted 2.5 s.
	if got.HomingWait < 2 || got.HomingWait > 3 {
		t.Fatalf("homing wait %v", got.HomingWait)
	}
}

func TestScriptErrors(t *testing.T) {
	if _, err := (Recording{}).Script(); err == nil {
		t.Fatal("empty recording accepted")
	}
	rec := Recording{Header: Header{Version: 1, Period: 1e-3},
		Ticks: []Tick{{T: 0.001}, {T: 0.002}}}
	if _, err := rec.Script(); err == nil {
		t.Fatal("recording without start accepted")
	}
}

func TestReplayTrajectoryMatchesOriginal(t *testing.T) {
	rec := capture(t)
	replay, err := rec.Trajectory()
	if err != nil {
		t.Fatal(err)
	}
	orig := trajectory.Standard()[0]
	// The replayed displacement must match the original trajectory's at
	// several pedal-time points (the console differentiates what the
	// recorder integrated).
	for _, tt := range []float64{0.5, 1.0, 2.0, 3.5} {
		got := replay.Pos(tt)
		want := orig.Pos(tt)
		if got.DistanceTo(want) > 1e-6 {
			t.Fatalf("replay at t=%v: %+v, want %+v", tt, got, want)
		}
	}
	if replay.Duration() < 3.9 || replay.Duration() > 4.1 {
		t.Fatalf("replay duration %v, want ~4 s", replay.Duration())
	}
}

func TestReplayedSessionReproducesMotion(t *testing.T) {
	rec := capture(t)
	replay, err := rec.Trajectory()
	if err != nil {
		t.Fatal(err)
	}
	script, err := rec.Script()
	if err != nil {
		t.Fatal(err)
	}
	rig, err := sim.New(sim.Config{Seed: 301, Script: script, Traj: replay})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Run(0); err != nil {
		t.Fatal(err)
	}
	// The replayed session's final tip must land near the recorded one.
	last := rec.Ticks[len(rec.Ticks)-1]
	tip := rig.Plant().TipPosition()
	d := math.Sqrt((tip.X-last.TipX)*(tip.X-last.TipX) +
		(tip.Y-last.TipY)*(tip.Y-last.TipY) +
		(tip.Z-last.TipZ)*(tip.Z-last.TipZ))
	if d > 0.002 {
		t.Fatalf("replayed session ended %v m from the recorded end", d)
	}
}

func TestReplayClampsBeyondEnd(t *testing.T) {
	rec := capture(t)
	replay, err := rec.Trajectory()
	if err != nil {
		t.Fatal(err)
	}
	end := replay.Pos(replay.Duration())
	if got := replay.Pos(replay.Duration() + 100); got != end {
		t.Fatalf("replay extrapolated beyond its end: %+v vs %+v", got, end)
	}
	if got := replay.Pos(-5); got != (replay.Pos(0)) {
		t.Fatalf("negative time: %+v", got)
	}
}

// TestReplayTinyPeriodClamps pins the replay of a recording whose period
// is positive but tiny: t/period overflows int, and the lookup must clamp
// to the recording's end rather than index with the overflowed value.
func TestReplayTinyPeriodClamps(t *testing.T) {
	rec, err := Read(strings.NewReader(`{"version":1,"period_s":1e-300}
{"t":0.001,"pedal":true,"start":true,"delta":[0.001,0,0],"ori":[0.5,0,0]}
`))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := rec.Trajectory()
	if err != nil {
		t.Fatal(err)
	}
	if got := replay.Pos(1.0); got.X != 0.001 {
		t.Fatalf("Pos(1.0) = %+v, want the recording's end", got)
	}
	if got := replay.Ori(math.Inf(1)); got[0] != 0.5 {
		t.Fatalf("Ori(+Inf) = %v, want the recording's end", got)
	}
}

func TestTrajectoryErrors(t *testing.T) {
	if _, err := (Recording{}).Trajectory(); err == nil {
		t.Fatal("empty recording accepted")
	}
	rec := Recording{Header: Header{Version: 1, Period: 1e-3},
		Ticks: []Tick{{T: 0.001, Pedal: false}}}
	if _, err := rec.Trajectory(); err == nil {
		t.Fatal("motionless recording accepted")
	}
}
