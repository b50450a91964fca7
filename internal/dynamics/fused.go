package dynamics

import (
	"fmt"
	"math"

	"ravenguard/internal/kinematics"
)

// This file is the hot-path kernel of the repository: the fused
// fixed-step integrators used by the plant's 50 us RK4 sub-step loop and
// by the guard's one-step-ahead prediction, both of which must fit far
// inside the 1 ms control period (Section V of the paper makes the
// Euler-vs-RK4 runtime a headline trade-off). The generic
// Integrator/Deriv path in integrator.go remains as the readable
// reference implementation — the equivalence tests in fused_test.go pin
// the two together — but it pays a method-value closure allocation and
// interface dispatch on every step. The Stepper instead:
//
//   - exploits that the two-mass model has no cross-joint coupling: each
//     joint's four states run their whole RK4 step in locals, never
//     touching memory between stages, and StepRK4 interleaves the three
//     joints' independent stage chains so the out-of-order core overlaps
//     them;
//   - keeps what scratch remains in fixed-size stack values (0 allocs/op);
//   - precomputes the reciprocals of the inertias and transmission
//     ratios so the derivative is division-free;
//   - replaces the tanh-smoothed Coulomb signum with a division-free
//     polynomial inside the smoothing band (8.2e-11 worst error), a
//     table-driven exponential on the mid band (a 64-entry 2^(j/64)
//     table and five math.FMA steps, ~2.2e-16, see tanhMid) and the
//     exact ±1 beyond saturation;
//   - evaluates the gravity sine/cosine only when the link has moved
//     more than anchorRad from the last evaluation, reconstructing
//     intermediate values from the anchor by a fifth-order expansion
//     (< 2e-13 error), with a range-reduced polynomial sincos (~5e-14)
//     when it does re-anchor.
//
// The fused and reference paths therefore agree to float tolerance, not
// bit-for-bit; fused_test.go bounds the divergence at ~5e-11 over a 10 s
// 1 kHz teleop trace — noise relative to the pipeline's ~1e-3 detection
// thresholds. Every approximation boundary degrades gracefully: NaN
// states propagate and cannot poison the anchor, and arguments outside a
// polynomial's domain fall back to math.Tanh/math.Sincos.

// fusedJoint is one joint's constants, reshaped for the derivative's
// inner loop: reciprocals instead of divisors, flat fields instead of the
// documented JointParams layout.
type fusedJoint struct {
	invRatio  float64 // 1/N
	k         float64 // cable stiffness
	b         float64 // cable damping
	bm        float64 // motor damping
	invJm     float64 // 1/Jm
	bl        float64 // link damping
	coulomb   float64
	invJl     float64 // 1/Jl
	gravConst float64
	gravPhase float64
	gravSin   bool

	// Gravity anchor: the amplitude-scaled sine/cosine of the gravity
	// angle, evaluated at link position aLp. While the link stays within
	// anchorRad of aLp — hundreds of consecutive steps at realistic
	// joint speeds — gravAt reconstructs the gravity torque from the
	// anchor by a fifth-order expansion instead of calling fastSinCos.
	// aLp starts (and, after a NaN state, becomes) NaN, which fails the
	// freshness check and forces a re-anchor. Mutated by Step*; part of
	// why a Stepper is not safe for concurrent use.
	aLp  float64
	aSin float64 // gravConst * sin(aLp + gravPhase)
	aCos float64 // gravConst * cos(aLp + gravPhase)
}

// accelG evaluates one joint's accelerations (motor, link) given the
// held torque, the joint's four states and the precomputed link-side
// load (gravity plus Coulomb friction):
//
//	cable  = K*(mpos/N - lpos) + B*(mvel/N - lvel)
//	Jm a_m = tau - Bm*mvel - cable/N
//	Jl a_l = cable - Bl*lvel - load
//
// The load — the only transcendental part of the derivative — is hoisted
// to the caller so this body is pure arithmetic and small enough for the
// inliner: the RK4 stage loop calls it 12 times per step.
//
//ravenlint:noalloc
func (j *fusedJoint) accelG(tau, mpos, mvel, lpos, lvel, load float64) (am, al float64) {
	stretch := mpos*j.invRatio - lpos
	stretchVel := mvel*j.invRatio - lvel
	cable := j.k*stretch + j.b*stretchVel
	am = (tau - j.bm*mvel - cable*j.invRatio) * j.invJm
	al = (cable - j.bl*lvel - load) * j.invJl
	return am, al
}

// friction is the joint's tanh-smoothed Coulomb term at link velocity
// lvel (see smoothSign in reference_test.go). The step loops spell the
// same computation out by hand — tanhBand2 branch between tanhPoly and
// tanhTail — because a single function holding both the polynomial and
// the fallback call exceeds the inline budget; this method is the
// readable form, used where a few nanoseconds don't matter.
//
//ravenlint:noalloc
func (j *fusedJoint) friction(lvel float64) float64 {
	return j.coulomb * fastTanh(lvel*invSmooth)
}

// anchorRad2 is the square of the anchor freshness radius (0.01 rad).
// Within that radius gravAt's fifth-order expansion is exact to
// ~d^6/720 < 2e-13 even with a stage offset on top, so the anchor only
// needs refreshing after the link has actually travelled.
const anchorRad2 = 1e-4

// anchor returns the link's offset from the joint's gravity anchor,
// re-anchoring first if the link has moved more than anchorRad away —
// or if either the anchor or lpos is NaN, since a NaN offset fails the
// freshness comparison. Prismatic joints keep an anchor too, even
// though gravAt ignores their offset: walking the anchor along with the
// link costs a cheap reanchor call every ~anchorRad of travel and keeps
// this body small enough to inline.
//
//ravenlint:noalloc
func (j *fusedJoint) anchor(lpos float64) float64 {
	d := lpos - j.aLp
	if d*d < anchorRad2 {
		return d
	}
	j.reanchor(lpos)
	return 0
}

// reanchor moves the gravity anchor to link position lpos, re-evaluating
// the sine/cosine there for the sinusoidal joints. Kept out of line: it
// is the rare path of anchor, and letting its body inline into anchor
// would push anchor itself past the inline budget.
//
//go:noinline
//ravenlint:noalloc
func (j *fusedJoint) reanchor(lpos float64) {
	j.aLp = lpos
	if !j.gravSin {
		return
	}
	sn, cs := fastSinCos(lpos + j.gravPhase)
	j.aSin, j.aCos = j.gravConst*sn, j.gravConst*cs
}

// gravAt evaluates the gravity torque at angle offset d from the joint's
// anchor, using the fifth-order expansion
//
//	sin(a+d) = sin a (1 - d²/2 + d⁴/24) + cos a (d - d³/6 + d⁵/120)
//
// whose truncation error d^6/720 is < 2e-13 within the anchor radius.
//
//ravenlint:noalloc
func (j *fusedJoint) gravAt(d float64) float64 {
	if !j.gravSin {
		return j.gravConst
	}
	z := d * d
	return j.aSin*(1-z*(0.5-z*(1.0/24))) + j.aCos*d*(1-z*((1.0/6)-z*(1.0/120)))
}

// Stepper is the fused dynamics kernel: the two-mass model and both
// fixed-step integration schemes in one object. Not safe for concurrent
// use; each simulation loop owns its own.
type Stepper struct {
	joints [kinematics.NumJoints]fusedJoint
	tau    [kinematics.NumJoints]float64
	params Params //ravenlint:snapshot-ignore construction constants, never mutated
}

// NewStepper builds the kernel, validating the parameters.
func NewStepper(p Params) (*Stepper, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("dynamics: %w", err)
	}
	s := &Stepper{params: p}
	for i := range p.Joints {
		jp := &p.Joints[i]
		s.joints[i] = fusedJoint{
			invRatio:  1 / jp.Ratio,
			k:         jp.CableStiffness,
			b:         jp.CableDamping,
			bm:        jp.MotorDamping,
			invJm:     1 / jp.MotorInertia,
			bl:        jp.LinkDamping,
			coulomb:   jp.Coulomb,
			invJl:     1 / jp.LinkInertia,
			gravConst: jp.GravConst,
			gravPhase: jp.GravPhase,
			gravSin:   jp.GravSin,
			aLp:       math.NaN(), // no anchor until the first step
		}
	}
	return s, nil
}

// Params returns the constants the kernel was built from.
func (s *Stepper) Params() Params { return s.params }

// SetTorque fixes the motor torque input (zero-order hold) for subsequent
// steps.
//
//ravenlint:noalloc
func (s *Stepper) SetTorque(tau [kinematics.NumJoints]float64) { s.tau = tau }

// Torque returns the currently applied motor torques.
func (s *Stepper) Torque() [kinematics.NumJoints]float64 { return s.tau }

// StepEuler advances x in place by one explicit Euler step.
//
//ravenlint:noalloc
func (s *Stepper) StepEuler(x *[StateDim]float64, dt float64) {
	for i := 0; i < kinematics.NumJoints; i++ {
		j := &s.joints[i]
		base := 4 * i
		mp, mv := x[base], x[base+1]
		lp, lv := x[base+2], x[base+3]
		d0 := j.anchor(lp)
		u := lv * lv
		var fr float64
		if u < tanhBandV2 {
			fr = tanhPolyVel(lv, u)
		} else {
			fr = tanhTail(lv * invSmooth)
		}
		am, al := j.accelG(s.tau[i], mp, mv, lp, lv, j.gravAt(d0)+j.coulomb*fr)
		x[base] = mp + dt*mv
		x[base+1] = mv + dt*am
		x[base+2] = lp + dt*lv
		x[base+3] = lv + dt*al
	}
}

// StepRK4 advances x in place by one classical 4th-order Runge-Kutta
// step. The body is written stage-major with the three joints spelled
// out (suffixes a, b, c) rather than joint-major in a loop: each stage's
// link acceleration depends on the previous stage's through a ~50-cycle
// chain (friction polynomial included), and interleaving the three
// independent joints' chains in program order lets the out-of-order core
// overlap them, where the joint-at-a-time form left it idling down one
// serial chain at a time — measured ~2x on BenchmarkFusedStepRK4. The
// friction band branch is spelled out per joint per stage because a
// helper holding both the polynomial and the tanhTail fallback call
// would exceed the inline budget (see tanhPolyVel). Gravity comes from
// each joint's anchor via gravAt, with the stage position offsets added
// onto the anchor offset d0.
//
//ravenlint:noalloc
func (s *Stepper) StepRK4(x *[StateDim]float64, dt float64) {
	h2, h6 := dt/2, dt/6
	ja, jb, jc := &s.joints[0], &s.joints[1], &s.joints[2]
	taua, taub, tauc := s.tau[0], s.tau[1], s.tau[2]
	mpa, mva, lpa, lva := x[0], x[1], x[2], x[3]
	mpb, mvb, lpb, lvb := x[4], x[5], x[6], x[7]
	mpc, mvc, lpc, lvc := x[8], x[9], x[10], x[11]
	d0a, d0b, d0c := ja.anchor(lpa), jb.anchor(lpb), jc.anchor(lpc)

	ua, ub, uc := lva*lva, lvb*lvb, lvc*lvc
	var fra, frb, frc float64
	if ua < tanhBandV2 {
		fra = tanhPolyVel(lva, ua)
	} else {
		fra = tanhTail(lva * invSmooth)
	}
	if ub < tanhBandV2 {
		frb = tanhPolyVel(lvb, ub)
	} else {
		frb = tanhTail(lvb * invSmooth)
	}
	if uc < tanhBandV2 {
		frc = tanhPolyVel(lvc, uc)
	} else {
		frc = tanhTail(lvc * invSmooth)
	}
	am1a, al1a := ja.accelG(taua, mpa, mva, lpa, lva, ja.gravAt(d0a)+ja.coulomb*fra)
	am1b, al1b := jb.accelG(taub, mpb, mvb, lpb, lvb, jb.gravAt(d0b)+jb.coulomb*frb)
	am1c, al1c := jc.accelG(tauc, mpc, mvc, lpc, lvc, jc.gravAt(d0c)+jc.coulomb*frc)

	mv2a, lv2a := mva+h2*am1a, lva+h2*al1a
	mv2b, lv2b := mvb+h2*am1b, lvb+h2*al1b
	mv2c, lv2c := mvc+h2*am1c, lvc+h2*al1c
	ua, ub, uc = lv2a*lv2a, lv2b*lv2b, lv2c*lv2c
	if ua < tanhBandV2 {
		fra = tanhPolyVel(lv2a, ua)
	} else {
		fra = tanhTail(lv2a * invSmooth)
	}
	if ub < tanhBandV2 {
		frb = tanhPolyVel(lv2b, ub)
	} else {
		frb = tanhTail(lv2b * invSmooth)
	}
	if uc < tanhBandV2 {
		frc = tanhPolyVel(lv2c, uc)
	} else {
		frc = tanhTail(lv2c * invSmooth)
	}
	am2a, al2a := ja.accelG(taua, mpa+h2*mva, mv2a, lpa+h2*lva, lv2a, ja.gravAt(d0a+h2*lva)+ja.coulomb*fra)
	am2b, al2b := jb.accelG(taub, mpb+h2*mvb, mv2b, lpb+h2*lvb, lv2b, jb.gravAt(d0b+h2*lvb)+jb.coulomb*frb)
	am2c, al2c := jc.accelG(tauc, mpc+h2*mvc, mv2c, lpc+h2*lvc, lv2c, jc.gravAt(d0c+h2*lvc)+jc.coulomb*frc)

	mv3a, lv3a := mva+h2*am2a, lva+h2*al2a
	mv3b, lv3b := mvb+h2*am2b, lvb+h2*al2b
	mv3c, lv3c := mvc+h2*am2c, lvc+h2*al2c
	ua, ub, uc = lv3a*lv3a, lv3b*lv3b, lv3c*lv3c
	if ua < tanhBandV2 {
		fra = tanhPolyVel(lv3a, ua)
	} else {
		fra = tanhTail(lv3a * invSmooth)
	}
	if ub < tanhBandV2 {
		frb = tanhPolyVel(lv3b, ub)
	} else {
		frb = tanhTail(lv3b * invSmooth)
	}
	if uc < tanhBandV2 {
		frc = tanhPolyVel(lv3c, uc)
	} else {
		frc = tanhTail(lv3c * invSmooth)
	}
	am3a, al3a := ja.accelG(taua, mpa+h2*mv2a, mv3a, lpa+h2*lv2a, lv3a, ja.gravAt(d0a+h2*lv2a)+ja.coulomb*fra)
	am3b, al3b := jb.accelG(taub, mpb+h2*mv2b, mv3b, lpb+h2*lv2b, lv3b, jb.gravAt(d0b+h2*lv2b)+jb.coulomb*frb)
	am3c, al3c := jc.accelG(tauc, mpc+h2*mv2c, mv3c, lpc+h2*lv2c, lv3c, jc.gravAt(d0c+h2*lv2c)+jc.coulomb*frc)

	mv4a, lv4a := mva+dt*am3a, lva+dt*al3a
	mv4b, lv4b := mvb+dt*am3b, lvb+dt*al3b
	mv4c, lv4c := mvc+dt*am3c, lvc+dt*al3c
	ua, ub, uc = lv4a*lv4a, lv4b*lv4b, lv4c*lv4c
	if ua < tanhBandV2 {
		fra = tanhPolyVel(lv4a, ua)
	} else {
		fra = tanhTail(lv4a * invSmooth)
	}
	if ub < tanhBandV2 {
		frb = tanhPolyVel(lv4b, ub)
	} else {
		frb = tanhTail(lv4b * invSmooth)
	}
	if uc < tanhBandV2 {
		frc = tanhPolyVel(lv4c, uc)
	} else {
		frc = tanhTail(lv4c * invSmooth)
	}
	am4a, al4a := ja.accelG(taua, mpa+dt*mv3a, mv4a, lpa+dt*lv3a, lv4a, ja.gravAt(d0a+dt*lv3a)+ja.coulomb*fra)
	am4b, al4b := jb.accelG(taub, mpb+dt*mv3b, mv4b, lpb+dt*lv3b, lv4b, jb.gravAt(d0b+dt*lv3b)+jb.coulomb*frb)
	am4c, al4c := jc.accelG(tauc, mpc+dt*mv3c, mv4c, lpc+dt*lv3c, lv4c, jc.gravAt(d0c+dt*lv3c)+jc.coulomb*frc)

	x[0] = mpa + h6*(mva+2*mv2a+2*mv3a+mv4a)
	x[1] = mva + h6*(am1a+2*am2a+2*am3a+am4a)
	x[2] = lpa + h6*(lva+2*lv2a+2*lv3a+lv4a)
	x[3] = lva + h6*(al1a+2*al2a+2*al3a+al4a)
	x[4] = mpb + h6*(mvb+2*mv2b+2*mv3b+mv4b)
	x[5] = mvb + h6*(am1b+2*am2b+2*am3b+am4b)
	x[6] = lpb + h6*(lvb+2*lv2b+2*lv3b+lv4b)
	x[7] = lvb + h6*(al1b+2*al2b+2*al3b+al4b)
	x[8] = mpc + h6*(mvc+2*mv2c+2*mv3c+mv4c)
	x[9] = mvc + h6*(am1c+2*am2c+2*am3c+am4c)
	x[10] = lpc + h6*(lvc+2*lv2c+2*lv3c+lv4c)
	x[11] = lvc + h6*(al1c+2*al2c+2*al3c+al4c)
}

// StepperState is the mutable part of a Stepper: the held torque and the
// per-joint gravity anchors. Capturing it alongside the state vector makes a
// checkpointed run bit-identical on resume — a restored kernel that merely
// re-anchored at the current link position would evaluate gravity from a
// different expansion point than the straight run (~2e-13 divergence, enough
// to break bit-for-bit fork equivalence).
type StepperState struct {
	Tau  [kinematics.NumJoints]float64
	ALp  [kinematics.NumJoints]float64
	ASin [kinematics.NumJoints]float64
	ACos [kinematics.NumJoints]float64
}

// Checkpoint captures the kernel's mutable state.
func (s *Stepper) Checkpoint() StepperState {
	var st StepperState
	st.Tau = s.tau
	for i := range s.joints {
		st.ALp[i] = s.joints[i].aLp
		st.ASin[i] = s.joints[i].aSin
		st.ACos[i] = s.joints[i].aCos
	}
	return st
}

// RestoreCheckpoint restores state captured by Checkpoint.
func (s *Stepper) RestoreCheckpoint(st StepperState) {
	s.tau = st.Tau
	for i := range s.joints {
		s.joints[i].aLp = st.ALp[i]
		s.joints[i].aSin = st.ASin[i]
		s.joints[i].aCos = st.ACos[i]
	}
}

// Step advances x by one step of the named scheme: rk4 selects StepRK4,
// otherwise StepEuler. It lets callers hold one branch flag instead of an
// interface value.
//
//ravenlint:noalloc
func (s *Stepper) Step(rk4 bool, x *[StateDim]float64, dt float64) {
	if rk4 {
		s.StepRK4(x, dt)
	} else {
		s.StepEuler(x, dt)
	}
}

// invSmooth is the reciprocal of the smoothSign tanh band (see
// reference_test.go); constant arithmetic keeps it exact.
const invSmooth = 1 / 0.02

// tanhBand2 is the square of the half-width of fastTanh's polynomial
// band: tanhPoly is valid for x² < tanhBand2, i.e. |x| < 5/8.
const tanhBand2 = 0.390625

// tanhBandV2 is the same band expressed on link velocity: tanhPolyVel is
// valid for v² < tanhBandV2, i.e. |v| < 5/8 · 0.02.
const tanhBandV2 = tanhBand2 / (invSmooth * invSmooth)

// tanhPolyVel evaluates smoothSign(v) = tanh(v/0.02) directly from the
// link velocity: it is tanhPoly with the 1/0.02 argument scaling folded
// into the coefficients (ck · 50·2500^k), so the step loops go from v to
// friction without first materializing v/0.02. Callers pass u = v² and
// must have checked u < tanhBandV2. Same 8.2e-11 worst error as
// tanhPoly; the two differ only in rounding, at ~1 ulp.
//
//ravenlint:noalloc
func tanhPolyVel(v, u float64) float64 {
	p := 2.600474304296876e+19
	p = p*u - 3.984975920707703e+16
	p = p*u + 42368662216806.414
	p = p*u - 42144443625.64386
	p = p*u + 41666201.69052964
	p = p*u - 41666.66219649304
	p = p*u + 49.999999992955466
	return v * p
}

// tanhPoly evaluates tanh on |x| < 5/8 — the band the stage loop
// actually sits in whenever a link moves slower than the smoothing
// velocity — as a degree-13 odd polynomial, the Chebyshev fit of
// tanh(x)/x in t = x² on the band, with worst error 8.2e-11 absolute:
// friction-torque noise of coulomb·8e-11 N·m, far below the model's
// parameter tolerances. A division-based Padé approximant would be one
// ulp accurate, but twelve of these run per RK4 step and the divider is
// the one unit the stage loop would serialize on; the polynomial is
// pure fused-multiply-add material. Callers pass t so the banding
// branch and this body stay separately inlinable: one function holding
// the polynomial, the branch, and the tanhTail fallback call would
// exceed the inline budget.
//
//ravenlint:noalloc
func tanhPoly(x, t float64) float64 {
	p := 0.0021303085500800007
	p = p*t - 0.008161230685609377
	p = p*t + 0.021692755055004884
	p = p*t - 0.053944887840824136
	p = p*t + 0.13333184540969484
	p = p*t - 0.3333332975719443
	p = p*t + 0.9999999998591094
	return x * p
}

// fastTanh composes tanhPoly and tanhTail into a drop-in tanh for the
// Coulomb smoothing term. NaN propagates through both paths. The step
// loops inline the same banding branch by hand instead of calling this
// (see friction).
//
//ravenlint:noalloc
func fastTanh(x float64) float64 {
	t := x * x
	if t < tanhBand2 {
		return tanhPoly(x, t)
	}
	return tanhTail(x)
}

// tanhTail handles |x| >= 5/8 for fastTanh. For |x| >= 20, tanh(x)
// differs from ±1 by < 1e-17, far below half an ulp of 1.0, so returning
// ±1 is value-identical to math.Tanh while skipping its exp evaluation —
// and saturation is the common case once a joint moves faster than the
// Coulomb smoothing band. The remaining mid band goes to tanhMid.
//
//ravenlint:noalloc
func tanhTail(x float64) float64 {
	if x >= 20 {
		return 1
	}
	if x <= -20 {
		return -1
	}
	return tanhMid(x)
}

// Constants for tanhMid's reduction: tanhScale maps |x| to
// y = 64·log2(e^(-2|x|)), so that e^(-2|x|) = 2^(y/64), and tanhLn2By64
// maps y's fractional part back to exp's argument. Constant arithmetic
// rounds each once, from the exact value.
const (
	tanhScale   = -2 * 64 * math.Log2E
	tanhLn2By64 = math.Ln2 / 64
)

// tanhExp2 holds 2^(j/64) for j = 0..63, each correctly rounded to
// float64 (TestTanhExp2Table proves it with math/big).
var tanhExp2 = [64]float64{
	0x1.0000000000000p+00, 0x1.02c9a3e778061p+00, 0x1.059b0d3158574p+00, 0x1.0874518759bc8p+00,
	0x1.0b5586cf9890fp+00, 0x1.0e3ec32d3d1a2p+00, 0x1.11301d0125b51p+00, 0x1.1429aaea92de0p+00,
	0x1.172b83c7d517bp+00, 0x1.1a35beb6fcb75p+00, 0x1.1d4873168b9aap+00, 0x1.2063b88628cd6p+00,
	0x1.2387a6e756238p+00, 0x1.26b4565e27cddp+00, 0x1.29e9df51fdee1p+00, 0x1.2d285a6e4030bp+00,
	0x1.306fe0a31b715p+00, 0x1.33c08b26416ffp+00, 0x1.371a7373aa9cbp+00, 0x1.3a7db34e59ff7p+00,
	0x1.3dea64c123422p+00, 0x1.4160a21f72e2ap+00, 0x1.44e086061892dp+00, 0x1.486a2b5c13cd0p+00,
	0x1.4bfdad5362a27p+00, 0x1.4f9b2769d2ca7p+00, 0x1.5342b569d4f82p+00, 0x1.56f4736b527dap+00,
	0x1.5ab07dd485429p+00, 0x1.5e76f15ad2148p+00, 0x1.6247eb03a5585p+00, 0x1.6623882552225p+00,
	0x1.6a09e667f3bcdp+00, 0x1.6dfb23c651a2fp+00, 0x1.71f75e8ec5f74p+00, 0x1.75feb564267c9p+00,
	0x1.7a11473eb0187p+00, 0x1.7e2f336cf4e62p+00, 0x1.82589994cce13p+00, 0x1.868d99b4492edp+00,
	0x1.8ace5422aa0dbp+00, 0x1.8f1ae99157736p+00, 0x1.93737b0cdc5e5p+00, 0x1.97d829fde4e50p+00,
	0x1.9c49182a3f090p+00, 0x1.a0c667b5de565p+00, 0x1.a5503b23e255dp+00, 0x1.a9e6b5579fdbfp+00,
	0x1.ae89f995ad3adp+00, 0x1.b33a2b84f15fbp+00, 0x1.b7f76f2fb5e47p+00, 0x1.bcc1e904bc1d2p+00,
	0x1.c199bdd85529cp+00, 0x1.c67f12e57d14bp+00, 0x1.cb720dcef9069p+00, 0x1.d072d4a07897cp+00,
	0x1.d5818dcfba487p+00, 0x1.da9e603db3285p+00, 0x1.dfc97337b9b5fp+00, 0x1.e502ee78b3ff6p+00,
	0x1.ea4afa2a490dap+00, 0x1.efa1bee615a27p+00, 0x1.f50765b6e4540p+00, 0x1.fa7c1819e90d8p+00,
}

// tanhMid evaluates tanh on the mid band 5/8 <= |x| < 20 — homing sweeps
// and attack transients park link velocities here for thousands of
// consecutive substeps, and the fleet profile showed the math.Tanh call
// it replaces dominating the whole worker tick. It uses the identity
//
//	tanh(x) = sgn(x) · (1 - 2s/(1+s)),  s = e^(-2|x|) = 2^(y/64)
//
// with y = 64·(-2|x|)·log2(e) ∈ (-3694, -115], and evaluates s by table
// reduction (Tang's method): split y = k + f with k = RoundToEven(y) and
// f ∈ [-1/2, 1/2], so s = 2^(k>>6) · 2^((k&63)/64) · e^w with
// w = f·ln2/64, |w| <= 0.0055. e^w is a degree-5 Taylor polynomial
// (truncation < 4e-17 relative), 2^((k&63)/64) a lookup in tanhExp2,
// and 2^(k>>6) an add to the exponent bits — exact, and s >= e^(-40)
// keeps the result far from the subnormal range. y - k is exact
// (Sterbenz), so the only argument error is y's own rounding. The
// worst error against math.Tanh is ~2.2e-16 absolute over the band
// (TestTanhMidBand bounds it at 4.5e-16), inside the kernel's
// documented float-tolerance contract (fastSin and the friction
// polynomial sit at 5e-14 and 8e-11).
//
// The table keeps the polynomial short: the chain from x to s is five
// dependent fused multiply-adds plus the table product, and it sits on
// the critical path of every plant sub-step whose link moves in the
// band (EXPERIMENTS.md, "Table-driven tanhMid"). The FMAs are explicit
// math.FMA calls: FMA is exact by definition, so every platform
// computes the same bits (on amd64 the call compiles to VFMADD behind a
// CPU-feature check, with an exact software fallback), and the
// float64() conversion on y is a rounding fence that keeps a fusing
// compiler (arm64) from folding y's product into y - k, which would
// make k and f disagree. One division remains, but only one evaluation
// runs per joint per stage against the twelve polynomial evaluations,
// so it does not serialize the stage chains the way a Padé friction
// would. Arguments outside the band — including NaN, which fails the
// range check — fall back to math.Tanh.
//
//ravenlint:noalloc
func tanhMid(x float64) float64 {
	ax := x
	if ax < 0 {
		ax = -ax
	}
	if !(ax < 20) {
		return math.Tanh(x) // out-of-contract caller; also catches NaN
	}
	y := float64(ax * tanhScale)
	k := math.RoundToEven(y)
	w := (y - k) * tanhLn2By64
	p := math.FMA(w, 1.0/120, 1.0/24)
	p = math.FMA(p, w, 1.0/6)
	p = math.FMA(p, w, 0.5)
	p = math.FMA(p, w, 1)
	p = math.FMA(p, w, 1)
	ki := int64(k)
	s := tanhExp2[ki&63] * p
	s = math.Float64frombits(math.Float64bits(s) + uint64(ki>>6)<<52)
	r := 1 - 2*s/(1+s)
	if x < 0 {
		return -r
	}
	return r
}

// Cody-Waite two-part representation of 2π for the fastSin argument
// reduction: twoPiHi is 2π rounded to float64, twoPiLo the remainder.
const (
	twoPiHi   = 6.283185307179586
	twoPiLo   = 2.4492935982947064e-16
	invTwoPi  = 1 / (2 * math.Pi)
	halfPi    = math.Pi / 2
	onePi     = math.Pi
	sinMaxArg = 1 << 40 // beyond this the two-part reduction loses the angle
)

// fastSin is a range-reduced odd-polynomial sine: reduce to [-π, π] by
// subtracting the nearest multiple of 2π (in two parts, so the reduction
// stays exact for the workspace-scale angles the model sees), fold into
// [-π/2, π/2], then evaluate the Taylor series through x^17 (truncation
// error ≈ 4e-14 at π/2). Arguments too large for the two-part reduction
// fall back to math.Sin.
//
//ravenlint:noalloc
func fastSin(x float64) float64 {
	if x > sinMaxArg || x < -sinMaxArg {
		return math.Sin(x) // also catches NaN/Inf
	}
	q := math.RoundToEven(x * invTwoPi)
	r := x - q*twoPiHi
	r -= q * twoPiLo
	if r > halfPi {
		r = onePi - r
	} else if r < -halfPi {
		r = -onePi - r
	}
	z := r * r
	p := 2.8114572543455206e-15 // 1/17!
	p = p*z - 7.647163731819816e-13
	p = p*z + 1.6059043836821613e-10
	p = p*z - 2.505210838544172e-08
	p = p*z + 2.7557319223985893e-06
	p = p*z - 1.984126984126984e-04
	p = p*z + 8.333333333333333e-03
	p = p*z - 1.6666666666666666e-01
	return r + r*(z*p)
}

// fastSinCos returns sin(x) and cos(x) with the same reduction as
// fastSin: fold into [-π/2, π/2] (the fold keeps the sine and negates the
// cosine), then Taylor polynomials through x^17 / x^16.
//
//ravenlint:noalloc
func fastSinCos(x float64) (sin, cos float64) {
	if x > sinMaxArg || x < -sinMaxArg {
		return math.Sincos(x) // also catches NaN/Inf
	}
	q := math.RoundToEven(x * invTwoPi)
	r := x - q*twoPiHi
	r -= q * twoPiLo
	negCos := false
	if r > halfPi {
		r = onePi - r
		negCos = true
	} else if r < -halfPi {
		r = -onePi - r
		negCos = true
	}
	z := r * r
	p := 2.8114572543455206e-15 // 1/17!
	p = p*z - 7.647163731819816e-13
	p = p*z + 1.6059043836821613e-10
	p = p*z - 2.505210838544172e-08
	p = p*z + 2.7557319223985893e-06
	p = p*z - 1.984126984126984e-04
	p = p*z + 8.333333333333333e-03
	p = p*z - 1.6666666666666666e-01
	sin = r + r*(z*p)

	c := 4.779477332387385e-14 // 1/16!
	c = c*z - 1.1470745597729725e-11
	c = c*z + 2.08767569878681e-09
	c = c*z - 2.755731922398589e-07
	c = c*z + 2.48015873015873e-05
	c = c*z - 1.3888888888888889e-03
	c = c*z + 4.1666666666666664e-02 // 1/4!
	cos = 1 - 0.5*z + z*z*c
	if negCos {
		cos = -cos
	}
	return sin, cos
}
