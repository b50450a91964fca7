package dynamics

import (
	"fmt"
	"math/rand"
	"testing"
)

// perturbedParams returns per-lane parameter sets jittered around the
// defaults, mimicking the per-run plant perturbation.
func perturbedParams(seed int64) Params {
	rng := rand.New(rand.NewSource(seed))
	p := DefaultParams()
	for i := range p.Joints {
		j := &p.Joints[i]
		s := func(v float64) float64 { return v * (1 + 0.03*(2*rng.Float64()-1)) }
		j.MotorInertia = s(j.MotorInertia)
		j.CableStiffness = s(j.CableStiffness)
		j.LinkInertia = s(j.LinkInertia)
		j.Coulomb = s(j.Coulomb)
		j.GravConst = s(j.GravConst)
	}
	return p
}

// driveBoth steps a scalar Stepper and one batch lane through the same
// torque program and asserts bit-identical states after every step.
func driveBoth(t *testing.T, rk4 bool, lanes, lane int, seed int64) {
	t.Helper()
	params := make([]Params, lanes)
	for i := range params {
		params[i] = perturbedParams(seed + int64(i))
	}
	scalars := make([]*Stepper, lanes)
	for i := range scalars {
		var err error
		scalars[i], err = NewStepper(params[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	ref, err := NewStepper(params[lane])
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewBatchStepper(lanes)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.SetLanes(lanes); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed * 31))
	xs := make([]State, lanes)
	var refX State
	const dt = 50e-6
	for step := 0; step < 4000; step++ {
		// Torques that sweep the joints through re-anchoring distances and
		// both friction-band branches.
		for l := 0; l < lanes; l++ {
			var tau [3]float64
			for j := range tau {
				tau[j] = 0.5 * (2*rng.Float64() - 1)
			}
			scalars[l].SetTorque(tau)
			scalars[l].FillLane(batch, l)
			batch.SetLaneX(l, &xs[l].X)
			if l == lane {
				ref.RestoreCheckpoint(scalars[l].Checkpoint())
				ref.SetTorque(tau)
			}
		}
		ref.Step(rk4, &refX.X, dt)
		batch.StepAll(rk4, dt)
		for l := 0; l < lanes; l++ {
			batch.LaneX(l, &xs[l].X)
			scalars[l].ReadLane(batch, l)
		}
		if xs[lane].X != refX.X {
			t.Fatalf("scheme rk4=%v: lane %d diverged from scalar at step %d:\nbatch  %v\nscalar %v",
				rk4, lane, step, xs[lane].X, refX.X)
		}
		if ck, rck := scalars[lane].Checkpoint(), ref.Checkpoint(); ck != rck {
			t.Fatalf("scheme rk4=%v: lane %d anchor state diverged at step %d: %+v vs %+v",
				rk4, lane, step, ck, rck)
		}
	}
}

// TestBatchSingleLaneBitIdentical pins the tentpole guarantee: a batch lane
// is bit-identical to the scalar Stepper, for both schemes, at several lane
// positions and batch widths (neighbouring lanes must not perturb it).
func TestBatchSingleLaneBitIdentical(t *testing.T) {
	for _, rk4 := range []bool{true, false} {
		driveBoth(t, rk4, 1, 0, 11)
		driveBoth(t, rk4, 5, 0, 12)
		driveBoth(t, rk4, 5, 2, 13)
		driveBoth(t, rk4, 5, 4, 14)
		driveBoth(t, rk4, 11, 7, 15)
	}
}

// TestBatchStepperAllocs pins that steady-state batch stepping is
// allocation-free, matching the single-lane kernel's budget.
func TestBatchStepperAllocs(t *testing.T) {
	const lanes = 8
	batch, err := NewBatchStepper(lanes)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.SetLanes(lanes); err != nil {
		t.Fatal(err)
	}
	steppers := make([]*Stepper, lanes)
	for i := range steppers {
		steppers[i], err = NewStepper(perturbedParams(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		steppers[i].SetTorque([3]float64{0.1, -0.05, 0.2})
		steppers[i].FillLane(batch, i)
		var x State
		batch.SetLaneX(i, &x.X)
	}
	allocs := testing.AllocsPerRun(200, func() {
		batch.StepRK4All(50e-6)
		batch.StepEulerAll(50e-6)
	})
	if allocs != 0 {
		t.Fatalf("batch stepping allocates %v allocs/op, want 0", allocs)
	}
}

func benchBatch(b *testing.B, lanes int) {
	batch, err := NewBatchStepper(lanes)
	if err != nil {
		b.Fatal(err)
	}
	if err := batch.SetLanes(lanes); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < lanes; i++ {
		s, err := NewStepper(perturbedParams(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		s.SetTorque([3]float64{0.1, -0.05, 0.2})
		s.FillLane(batch, i)
		var x State
		batch.SetLaneX(i, &x.X)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.StepRK4All(50e-6)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/lane")
}

func BenchmarkBatchStepRK4(b *testing.B) {
	for _, lanes := range []int{1, 4, 11} {
		b.Run(fmt.Sprintf("lanes%d", lanes), func(b *testing.B) {
			benchBatch(b, lanes)
		})
	}
}
