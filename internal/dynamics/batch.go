package dynamics

import (
	"fmt"

	"ravenguard/internal/kinematics"
)

// BatchStepper steps N homogeneous two-mass plants in lockstep through the
// fused RK4/Euler stages in structure-of-arrays layout: one slice per state
// component across all lanes, so each stage is a contiguous loop over lanes
// the out-of-order core can overlap. One lane's arithmetic is exactly the
// scalar Stepper's — same fusedJoint constants, same anchor/friction-band
// branches, same operation order — so a single lane's output is bit-identical
// to stepping the lane's Stepper directly (pinned by batch_test.go).
//
// robot.LaneSet keeps plants resident in its lanes across ticks for the
// fleet worker (fleet.Worker). Filling a lane copies the per-joint
// constants and gravity anchors from the lane's own Stepper and reading
// it back returns the mutated anchors. perfbench's trace probe also times
// StepEulerAll per lane; no production code steps Euler in a batch.
//
// All scratch is preallocated at construction: steady-state stepping is
// 0 allocs/op (guarded by the allocation regression tests).
type BatchStepper struct {
	capacity int
	n        int
	joints   [kinematics.NumJoints][]fusedJoint // [joint][lane]
	tau      [kinematics.NumJoints][]float64    // [joint][lane]
	x        [StateDim][]float64                // [component][lane]

	// Per-stage scratch, reused joint by joint.
	d0, am1, al1, am2, al2, am3, al3, am4, al4 []float64
	mv2, lv2, mv3, lv3, mv4, lv4               []float64
}

// NewBatchStepper allocates a batch with room for capacity lanes. Every
// per-lane array is carved from one of two backing slices, so a stepper
// costs three allocations however many components it tracks.
func NewBatchStepper(capacity int) (*BatchStepper, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("dynamics: batch capacity %d must be > 0", capacity)
	}
	b := &BatchStepper{capacity: capacity}
	joints := make([]fusedJoint, kinematics.NumJoints*capacity)
	for j := range b.joints {
		b.joints[j] = joints[j*capacity : (j+1)*capacity : (j+1)*capacity]
	}
	stage := []*[]float64{
		&b.d0, &b.am1, &b.al1, &b.am2, &b.al2, &b.am3, &b.al3, &b.am4, &b.al4,
		&b.mv2, &b.lv2, &b.mv3, &b.lv3, &b.mv4, &b.lv4,
	}
	floats := make([]float64, (len(stage)+len(b.tau)+len(b.x))*capacity)
	carve := func() []float64 {
		s := floats[:capacity:capacity]
		floats = floats[capacity:]
		return s
	}
	for _, p := range stage {
		*p = carve()
	}
	for j := range b.tau {
		b.tau[j] = carve()
	}
	for c := range b.x {
		b.x[c] = carve()
	}
	return b, nil
}

// SetLanes sets the number of active lanes for subsequent steps.
func (b *BatchStepper) SetLanes(n int) error {
	if n < 0 || n > b.capacity {
		return fmt.Errorf("dynamics: %d lanes exceed batch capacity %d", n, b.capacity)
	}
	b.n = n
	return nil
}

// FillLane loads lane of the batch from this kernel: per-joint constants,
// gravity anchors, and held torque. The lane then steps exactly as this
// Stepper would.
//
//ravenlint:noalloc
func (s *Stepper) FillLane(b *BatchStepper, lane int) {
	for j := 0; j < kinematics.NumJoints; j++ {
		b.joints[j][lane] = s.joints[j]
		b.tau[j][lane] = s.tau[j]
	}
}

// ReadLane writes the lane's mutated kernel state (gravity anchors, held
// torque) back into this Stepper, so scalar stepping can resume from where
// the batch left off.
//
//ravenlint:noalloc
func (s *Stepper) ReadLane(b *BatchStepper, lane int) {
	for j := 0; j < kinematics.NumJoints; j++ {
		jl := &b.joints[j][lane]
		s.joints[j].aLp, s.joints[j].aSin, s.joints[j].aCos = jl.aLp, jl.aSin, jl.aCos
		s.tau[j] = b.tau[j][lane]
	}
}

// SetLaneTau sets lane's held motor torques (zero-order hold).
func (b *BatchStepper) SetLaneTau(lane int, tau [kinematics.NumJoints]float64) {
	for j := 0; j < kinematics.NumJoints; j++ {
		b.tau[j][lane] = tau[j]
	}
}

// SetLaneX loads lane's state vector.
func (b *BatchStepper) SetLaneX(lane int, x *[StateDim]float64) {
	for c := 0; c < StateDim; c++ {
		b.x[c][lane] = x[c]
	}
}

// LaneX stores lane's state vector into x.
func (b *BatchStepper) LaneX(lane int, x *[StateDim]float64) {
	for c := 0; c < StateDim; c++ {
		x[c] = b.x[c][lane]
	}
}

// SwapLanes exchanges the complete per-lane data — joint constants and
// anchors, held torques, state vector — of lanes a and b. Lanes are
// independent, so a swap only relabels which index a plant occupies: every
// lane's subsequent arithmetic is unchanged. robot.LaneSet uses swaps to
// keep the active (unbraked) lanes a dense prefix window so the stage
// kernels never straddle parked lanes.
//
//ravenlint:noalloc
func (b *BatchStepper) SwapLanes(la, lb int) {
	if la == lb {
		return
	}
	for j := 0; j < kinematics.NumJoints; j++ {
		b.joints[j][la], b.joints[j][lb] = b.joints[j][lb], b.joints[j][la]
		b.tau[j][la], b.tau[j][lb] = b.tau[j][lb], b.tau[j][la]
	}
	for c := 0; c < StateDim; c++ {
		b.x[c][la], b.x[c][lb] = b.x[c][lb], b.x[c][la]
	}
}

// Component returns the shared slice of one state component across lanes
// (index by the flat state layout: 4*joint+{0:motor pos, 1:motor vel,
// 2:link pos, 3:link vel}). Callers may mutate entries in place — the
// plant's hard-stop and cable checks run between sub-steps this way
// without copying lanes out and back.
func (b *BatchStepper) Component(c int) []float64 { return b.x[c][:b.n] }

// StepEulerAll advances every active lane by one explicit Euler step,
// replicating Stepper.StepEuler's per-joint operation order per lane.
//
//ravenlint:noalloc
func (b *BatchStepper) StepEulerAll(dt float64) {
	n := b.n
	for jIdx := 0; jIdx < kinematics.NumJoints; jIdx++ {
		js := b.joints[jIdx][:n]
		tau := b.tau[jIdx][:n]
		base := 4 * jIdx
		mp, mv := b.x[base][:n], b.x[base+1][:n]
		lp, lv := b.x[base+2][:n], b.x[base+3][:n]
		for l := 0; l < n; l++ {
			j := &js[l]
			d0 := j.anchor(lp[l])
			u := lv[l] * lv[l]
			var fr float64
			if u < tanhBandV2 {
				fr = tanhPolyVel(lv[l], u)
			} else {
				fr = tanhTail(lv[l] * invSmooth)
			}
			am, al := j.accelG(tau[l], mp[l], mv[l], lp[l], lv[l], j.gravAt(d0)+j.coulomb*fr)
			mp[l] += dt * mv[l]
			lp[l] += dt * lv[l]
			mv[l] += dt * am
			lv[l] += dt * al
		}
	}
}

// StepRK4All advances every active lane by one classical RK4 step. The body
// is stage-major with a contiguous lane loop per stage: lanes are
// independent, so adjacent lanes' ~50-cycle stage chains overlap in the
// out-of-order core the same way StepRK4's hand-interleaved joints do —
// with the interleave width set by the batch size instead of fixed at
// three. Per lane the operation order matches Stepper.StepRK4 exactly
// (anchor, friction band branch, accelG, stage offsets through gravAt), so
// each lane's result is bit-identical to the scalar kernel's.
//
//ravenlint:noalloc
func (b *BatchStepper) StepRK4All(dt float64) {
	n := b.n
	h2, h6 := dt/2, dt/6
	for jIdx := 0; jIdx < kinematics.NumJoints; jIdx++ {
		js := b.joints[jIdx][:n]
		tau := b.tau[jIdx][:n]
		base := 4 * jIdx
		mp, mv := b.x[base][:n], b.x[base+1][:n]
		lp, lv := b.x[base+2][:n], b.x[base+3][:n]
		d0 := b.d0[:n]
		am1, al1 := b.am1[:n], b.al1[:n]
		am2, al2 := b.am2[:n], b.al2[:n]
		am3, al3 := b.am3[:n], b.al3[:n]
		am4, al4 := b.am4[:n], b.al4[:n]
		mv2, lv2 := b.mv2[:n], b.lv2[:n]
		mv3, lv3 := b.mv3[:n], b.lv3[:n]
		mv4, lv4 := b.mv4[:n], b.lv4[:n]

		for l := 0; l < n; l++ {
			j := &js[l]
			d0[l] = j.anchor(lp[l])
			u := lv[l] * lv[l]
			var fr float64
			if u < tanhBandV2 {
				fr = tanhPolyVel(lv[l], u)
			} else {
				fr = tanhTail(lv[l] * invSmooth)
			}
			am1[l], al1[l] = j.accelG(tau[l], mp[l], mv[l], lp[l], lv[l], j.gravAt(d0[l])+j.coulomb*fr)
		}

		for l := 0; l < n; l++ {
			j := &js[l]
			mv2[l], lv2[l] = mv[l]+h2*am1[l], lv[l]+h2*al1[l]
			u := lv2[l] * lv2[l]
			var fr float64
			if u < tanhBandV2 {
				fr = tanhPolyVel(lv2[l], u)
			} else {
				fr = tanhTail(lv2[l] * invSmooth)
			}
			am2[l], al2[l] = j.accelG(tau[l], mp[l]+h2*mv[l], mv2[l], lp[l]+h2*lv[l], lv2[l], j.gravAt(d0[l]+h2*lv[l])+j.coulomb*fr)
		}

		for l := 0; l < n; l++ {
			j := &js[l]
			mv3[l], lv3[l] = mv[l]+h2*am2[l], lv[l]+h2*al2[l]
			u := lv3[l] * lv3[l]
			var fr float64
			if u < tanhBandV2 {
				fr = tanhPolyVel(lv3[l], u)
			} else {
				fr = tanhTail(lv3[l] * invSmooth)
			}
			am3[l], al3[l] = j.accelG(tau[l], mp[l]+h2*mv2[l], mv3[l], lp[l]+h2*lv2[l], lv3[l], j.gravAt(d0[l]+h2*lv2[l])+j.coulomb*fr)
		}

		for l := 0; l < n; l++ {
			j := &js[l]
			mv4[l], lv4[l] = mv[l]+dt*am3[l], lv[l]+dt*al3[l]
			u := lv4[l] * lv4[l]
			var fr float64
			if u < tanhBandV2 {
				fr = tanhPolyVel(lv4[l], u)
			} else {
				fr = tanhTail(lv4[l] * invSmooth)
			}
			am4[l], al4[l] = j.accelG(tau[l], mp[l]+dt*mv3[l], mv4[l], lp[l]+dt*lv3[l], lv4[l], j.gravAt(d0[l]+dt*lv3[l])+j.coulomb*fr)
		}

		for l := 0; l < n; l++ {
			mp[l] += h6 * (mv[l] + 2*mv2[l] + 2*mv3[l] + mv4[l])
			lp[l] += h6 * (lv[l] + 2*lv2[l] + 2*lv3[l] + lv4[l])
			mv[l] += h6 * (am1[l] + 2*am2[l] + 2*am3[l] + am4[l])
			lv[l] += h6 * (al1[l] + 2*al2[l] + 2*al3[l] + al4[l])
		}
	}
}
