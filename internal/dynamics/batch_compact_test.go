package dynamics

import (
	"math/rand"
	"testing"
)

// compactHarness drives n resident lanes alongside n scalar reference
// steppers, with lane data resident in the batch (no per-step repack), so
// lane swaps can be interleaved with stepping and every lane checked
// against its own scalar twin.
type compactHarness struct {
	t     *testing.T
	rk4   bool
	batch *BatchStepper
	// scalar[i] is the reference for the plant currently in lane i; ids[i]
	// labels it so moves can be asserted.
	scalar []*Stepper
	refX   []State
	ids    []int
	rng    *rand.Rand
}

func newCompactHarness(t *testing.T, rk4 bool, capacity, lanes int, seed int64) *compactHarness {
	t.Helper()
	batch, err := NewBatchStepper(capacity)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.SetLanes(lanes); err != nil {
		t.Fatal(err)
	}
	h := &compactHarness{
		t:     t,
		rk4:   rk4,
		batch: batch,
		rng:   rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < lanes; i++ {
		s, err := NewStepper(perturbedParams(seed + int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		s.FillLane(batch, i)
		var x State
		batch.SetLaneX(i, &x.X)
		h.scalar = append(h.scalar, s)
		h.refX = append(h.refX, State{})
		h.ids = append(h.ids, i)
	}
	return h
}

// step advances every lane and its scalar twin by k sub-steps under a fresh
// torque program, then asserts bit-identity lane by lane.
func (h *compactHarness) step(k int) {
	h.t.Helper()
	const dt = 50e-6
	n := len(h.scalar)
	for s := 0; s < k; s++ {
		for l := 0; l < n; l++ {
			var tau [3]float64
			for j := range tau {
				tau[j] = 0.5 * (2*h.rng.Float64() - 1)
			}
			h.scalar[l].SetTorque(tau)
			h.batch.SetLaneTau(l, tau)
		}
		stepAll(h.batch, h.rk4, dt)
		for l := 0; l < n; l++ {
			h.scalar[l].Step(h.rk4, &h.refX[l].X, dt)
		}
	}
	for l := 0; l < n; l++ {
		var got State
		h.batch.LaneX(l, &got.X)
		if got.X != h.refX[l].X {
			h.t.Fatalf("rk4=%v: lane %d (plant %d) diverged from its scalar twin after lane swaps:\nbatch  %v\nscalar %v",
				h.rk4, l, h.ids[l], got.X, h.refX[l].X)
		}
	}
}

// swap mirrors BatchStepper.SwapLanes on the reference bookkeeping.
func (h *compactHarness) swap(a, b int) {
	h.batch.SwapLanes(a, b)
	h.scalar[a], h.scalar[b] = h.scalar[b], h.scalar[a]
	h.refX[a], h.refX[b] = h.refX[b], h.refX[a]
	h.ids[a], h.ids[b] = h.ids[b], h.ids[a]
}

// TestBatchCompactionBitIdentical pins the lane-swap guarantee
// robot.LaneSet's park/unpark moves rest on: interleaving SwapLanes with
// stepping leaves every lane's trajectory bit-identical to its scalar twin
// — a moved neighbour can never perturb another lane.
func TestBatchCompactionBitIdentical(t *testing.T) {
	for _, rk4 := range []bool{true, false} {
		h := newCompactHarness(t, rk4, 8, 7, 40)
		h.step(200)

		// Swap interior lanes, step, swap boundary lanes, step.
		h.swap(1, 5)
		h.step(150)
		h.swap(0, len(h.scalar)-1)
		h.step(150)
	}
}

// stepAll advances every active lane by one step of the named scheme.
func stepAll(b *BatchStepper, rk4 bool, dt float64) {
	if rk4 {
		b.StepRK4All(dt)
	} else {
		b.StepEulerAll(dt)
	}
}
