package robot

import (
	"math"
	"testing"

	"ravenguard/internal/dynamics"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/motor"
	"ravenguard/internal/usb"
)

func newPlant(t *testing.T, seed int64) *Plant {
	t.Helper()
	p, err := NewPlant(Config{
		Params: dynamics.DefaultParams(),
		Bank:   motor.DefaultBank(),
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBrakesHoldAgainstGravity(t *testing.T) {
	p := newPlant(t, 1)
	start := p.JointPos()
	for i := 0; i < 1000; i++ {
		p.Step([usb.NumChannels]int16{}, 1e-3)
	}
	if got := p.JointPos(); got != start {
		t.Fatalf("braked arm moved: %v -> %v", start, got)
	}
}

func TestGravityPullsWhenUnbraked(t *testing.T) {
	p, err := NewPlant(Config{
		Params: dynamics.DefaultParams(),
		Bank:   motor.DefaultBank(),
		Seed:   2,
		StartPose: kinematics.JointPos{
			0.8, 1.0, 0.05, // mid-workspace, where gravity has leverage
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetBrakes(false)
	start := p.JointPos()
	for i := 0; i < 500; i++ {
		p.Step([usb.NumChannels]int16{}, 1e-3)
	}
	moved := math.Abs(p.JointPos()[0]-start[0]) + math.Abs(p.JointPos()[1]-start[1])
	if moved < 1e-4 {
		t.Fatalf("unpowered unbraked arm did not sag (moved %v rad)", moved)
	}
}

func TestPositiveDACAcceleratesMotor(t *testing.T) {
	p := newPlant(t, 3)
	p.SetBrakes(false)
	var dacs [usb.NumChannels]int16
	dacs[0] = 16000
	for i := 0; i < 50; i++ {
		p.Step(dacs, 1e-3)
	}
	if v := p.MotorVel()[0]; v <= 0 {
		t.Fatalf("motor velocity %v after sustained positive DAC", v)
	}
}

func TestHardStopsContainTheArm(t *testing.T) {
	p := newPlant(t, 4)
	p.SetBrakes(false)
	// Slam full-scale torque into every joint for two seconds.
	var dacs [usb.NumChannels]int16
	dacs[0], dacs[1], dacs[2] = 32767, 32767, 32767
	for i := 0; i < 2000; i++ {
		p.Step(dacs, 1e-3)
	}
	lim := kinematics.DefaultLimits()
	jp := p.JointPos()
	for i := 0; i < kinematics.NumJoints; i++ {
		margin := 0.06 * (lim.Max[i] - lim.Min[i])
		if jp[i] > lim.Max[i]+margin || jp[i] < lim.Min[i]-margin {
			t.Fatalf("joint %d at %v escaped hard stops [%v, %v]", i, jp[i], lim.Min[i], lim.Max[i])
		}
	}
}

func TestCableSnapsUnderExtremeTransient(t *testing.T) {
	// Violent alternating full-scale torque at the shoulder winds the
	// motor against the link inertia until the cable tension exceeds the
	// break limit — the failure the paper reports from real attacks.
	p, err := NewPlant(Config{
		Params:       dynamics.DefaultParams(),
		Bank:         motor.DefaultBank(),
		Seed:         5,
		BreakTension: [kinematics.NumJoints]float64{2.0, 2.0, 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetBrakes(false)
	var dacs [usb.NumChannels]int16
	for i := 0; i < 4000; i++ {
		if i/25%2 == 0 {
			dacs[0] = 32767
		} else {
			dacs[0] = -32768
		}
		p.Step(dacs, 1e-3)
		if broken, _ := p.CableBroken(); broken {
			return
		}
	}
	t.Fatal("cable never snapped under 4 s of full-scale alternating torque")
}

func TestBrokenCableDecouplesJoint(t *testing.T) {
	p, err := NewPlant(Config{
		Params:       dynamics.DefaultParams(),
		Bank:         motor.DefaultBank(),
		Seed:         6,
		BreakTension: [kinematics.NumJoints]float64{0.5, 99, 999}, // snap joint 0 quickly
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetBrakes(false)
	var dacs [usb.NumChannels]int16
	dacs[0] = 32767
	for i := 0; i < 500; i++ {
		p.Step(dacs, 1e-3)
	}
	broken, which := p.CableBroken()
	if !broken || !which[0] {
		t.Fatalf("setup: joint 0 cable not broken (%v)", which)
	}
	// After the snap, DAC input no longer drives joint 0's link through
	// the cable: its velocity decays under damping.
	vel0 := math.Abs(p.JointVel()[0])
	for i := 0; i < 1000; i++ {
		p.Step(dacs, 1e-3)
	}
	if v := math.Abs(p.JointVel()[0]); v > vel0+0.5 {
		t.Fatalf("broken joint still accelerating: %v -> %v", vel0, v)
	}
}

func TestEncoderCountsTrackMotorPos(t *testing.T) {
	p := newPlant(t, 7)
	counts := p.EncoderCounts()
	mp := p.MotorPos()
	bank := motor.DefaultBank()
	for i := 0; i < kinematics.NumJoints; i++ {
		back := bank[i].AngleFromCounts(counts[i])
		if math.Abs(back-mp[i]) > 2*math.Pi/4000 {
			t.Fatalf("joint %d: encoder %v vs motor %v", i, back, mp[i])
		}
	}
	// Unused channels read zero.
	for ch := kinematics.NumJoints; ch < usb.NumChannels; ch++ {
		if counts[ch] != 0 {
			t.Fatalf("unused channel %d reads %d", ch, counts[ch])
		}
	}
}

func TestParamJitterMakesPlantsDiffer(t *testing.T) {
	a := newPlant(t, 10)
	b := newPlant(t, 11)
	a.SetBrakes(false)
	b.SetBrakes(false)
	var dacs [usb.NumChannels]int16
	dacs[0] = 8000
	for i := 0; i < 300; i++ {
		a.Step(dacs, 1e-3)
		b.Step(dacs, 1e-3)
	}
	if a.JointPos() == b.JointPos() {
		t.Fatal("different seeds produced identical plants")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() kinematics.JointPos {
		p := newPlant(t, 12)
		p.SetBrakes(false)
		var dacs [usb.NumChannels]int16
		dacs[1] = 5000
		for i := 0; i < 200; i++ {
			p.Step(dacs, 1e-3)
		}
		return p.JointPos()
	}
	if run() != run() {
		t.Fatal("same seed produced different runs")
	}
}

func TestTipPositionMatchesFK(t *testing.T) {
	p := newPlant(t, 13)
	want := kinematics.Forward(p.JointPos())
	if got := p.TipPosition(); got != want {
		t.Fatalf("TipPosition = %+v, want FK %+v", got, want)
	}
}

func TestStateStaysFiniteUnderNoise(t *testing.T) {
	p := newPlant(t, 14)
	p.SetBrakes(false)
	var dacs [usb.NumChannels]int16
	for i := 0; i < 5000; i++ {
		p.Step(dacs, 1e-3)
	}
	if !p.TipPosition().IsFinite() {
		t.Fatal("plant state went non-finite")
	}
}

func TestNewPlantRejectsBadBank(t *testing.T) {
	bad := motor.DefaultBank()
	bad[0].TorqueConstant = 0
	if _, err := NewPlant(Config{Params: dynamics.DefaultParams(), Bank: bad}); err == nil {
		t.Fatal("bad bank accepted")
	}
}

func TestNewPlantRejectsBadParams(t *testing.T) {
	p := dynamics.DefaultParams()
	p.Joints[0].LinkInertia = -1
	if _, err := NewPlant(Config{Params: p, Bank: motor.DefaultBank()}); err == nil {
		t.Fatal("bad params accepted")
	}
}

// bitsEqual compares float slices bit-for-bit, so NaN sentinels (the
// stepper's "not yet anchored" marker) compare equal to themselves.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func checkpointEqual(a, b dynamics.StepperState) bool {
	return bitsEqual(a.Tau[:], b.Tau[:]) && bitsEqual(a.ALp[:], b.ALp[:]) &&
		bitsEqual(a.ASin[:], b.ASin[:]) && bitsEqual(a.ACos[:], b.ACos[:])
}

// driveDACs produces a deterministic, per-plant DAC schedule exciting hard
// stops and (for low break tensions) cable snaps.
func driveDACs(plant, step int) [usb.NumChannels]int16 {
	var dacs [usb.NumChannels]int16
	switch (plant + step/40) % 3 {
	case 0:
		dacs[0] = 22000
		dacs[1] = -9000
	case 1:
		dacs[0] = -28000
		dacs[2] = 15000
	default:
		dacs[1] = 30000
		dacs[3] = 6000 // wrist channel
	}
	return dacs
}

func buildPlants(t *testing.T, n int, breakTension [kinematics.NumJoints]float64) []*Plant {
	t.Helper()
	plants := make([]*Plant, n)
	for i := range plants {
		p, err := NewPlant(Config{
			Params:       dynamics.DefaultParams(),
			Bank:         motor.DefaultBank(),
			Seed:         100 + int64(i),
			BreakTension: breakTension,
		})
		if err != nil {
			t.Fatal(err)
		}
		plants[i] = p
	}
	return plants
}

// assertPlantsEqual requires got's complete state — integrator internals
// included — to equal want's bit-for-bit.
func assertPlantsEqual(t *testing.T, got, want *Plant, label string) {
	t.Helper()
	assertTrajectoryEqual(t, got, want, label)
	if !checkpointEqual(got.model.Checkpoint(), want.model.Checkpoint()) {
		t.Fatalf("%s: stepper internals diverged", label)
	}
}

// assertTrajectoryEqual is assertPlantsEqual without the integrator
// internals, which a LaneSet keeps in the lane while the plant is resident.
func assertTrajectoryEqual(t *testing.T, got, want *Plant, label string) {
	t.Helper()
	if !bitsEqual(got.state.X[:], want.state.X[:]) {
		t.Fatalf("%s: state diverged\n got %v\nwant %v", label, got.state.X, want.state.X)
	}
	if got.rngSrc.Pos() != want.rngSrc.Pos() {
		t.Fatalf("%s: rng position diverged: %+v vs %+v", label, got.rngSrc.Pos(), want.rngSrc.Pos())
	}
	if got.broken != want.broken {
		t.Fatalf("%s: broken flags %v vs %v", label, got.broken, want.broken)
	}
	if got.t != want.t {
		t.Fatalf("%s: time %v vs %v", label, got.t, want.t)
	}
	if got.wrist.Pos() != want.wrist.Pos() || got.wrist.Vel() != want.wrist.Vel() {
		t.Fatalf("%s: wrist state diverged", label)
	}
}

// TestPlantSnapshotRestore runs a plant to mid-trajectory, captures it,
// runs on, restores into a plant that took a different path, and requires
// the fork to replay the original continuation bit-for-bit.
func TestPlantSnapshotRestore(t *testing.T) {
	ref := buildPlants(t, 1, [kinematics.NumJoints]float64{})[0]
	fork := buildPlants(t, 1, [kinematics.NumJoints]float64{})[0]
	ref.SetBrakes(false)
	for step := 0; step < 500; step++ {
		ref.Step(driveDACs(0, step), 1e-3)
	}
	snap := ref.CaptureState()

	// Drive the fork plant somewhere else entirely first.
	fork.SetBrakes(false)
	for step := 0; step < 137; step++ {
		fork.Step(driveDACs(1, step), 1e-3)
	}
	fork.RestoreState(snap)
	assertPlantsEqual(t, fork, ref, "post-restore")

	for step := 500; step < 900; step++ {
		d := driveDACs(0, step)
		ref.Step(d, 1e-3)
		fork.Step(d, 1e-3)
		assertPlantsEqual(t, fork, ref, "continuation")
	}
}
