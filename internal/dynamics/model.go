package dynamics

import (
	"fmt"

	"ravenguard/internal/kinematics"
)

// StateDim is the dimension of the full manipulator state vector: for each
// of the three positioning joints, (motor angle, motor velocity, link
// position, link velocity).
const StateDim = 4 * kinematics.NumJoints

// State vector layout helpers. Index i is a joint index in
// [0, kinematics.NumJoints).
func idxMotorPos(i int) int { return 4 * i }
func idxMotorVel(i int) int { return 4*i + 1 }
func idxLinkPos(i int) int  { return 4*i + 2 }
func idxLinkVel(i int) int  { return 4*i + 3 }

// State is a convenience view over the flat ODE state vector.
type State struct {
	X [StateDim]float64
}

// MotorPos returns the motor shaft angles (radians).
func (s *State) MotorPos() kinematics.MotorPos {
	var mp kinematics.MotorPos
	for i := 0; i < kinematics.NumJoints; i++ {
		mp[i] = s.X[idxMotorPos(i)]
	}
	return mp
}

// MotorVel returns the motor shaft velocities (rad/s).
func (s *State) MotorVel() [kinematics.NumJoints]float64 {
	var v [kinematics.NumJoints]float64
	for i := 0; i < kinematics.NumJoints; i++ {
		v[i] = s.X[idxMotorVel(i)]
	}
	return v
}

// JointPos returns the link-side joint positions (rad, rad, m).
func (s *State) JointPos() kinematics.JointPos {
	var jp kinematics.JointPos
	for i := 0; i < kinematics.NumJoints; i++ {
		jp[i] = s.X[idxLinkPos(i)]
	}
	return jp
}

// JointVel returns the link-side joint velocities (rad/s, rad/s, m/s).
func (s *State) JointVel() [kinematics.NumJoints]float64 {
	var v [kinematics.NumJoints]float64
	for i := 0; i < kinematics.NumJoints; i++ {
		v[i] = s.X[idxLinkVel(i)]
	}
	return v
}

// SetJointPos sets link positions and the corresponding motor positions
// assuming a relaxed cable (motor consistent with link through the
// transmission), zero velocities. Used to initialise both plant and model at
// a known pose.
func (s *State) SetJointPos(jp kinematics.JointPos, tr kinematics.Transmission) {
	mp := tr.ToMotor(jp)
	for i := 0; i < kinematics.NumJoints; i++ {
		s.X[idxMotorPos(i)] = mp[i]
		s.X[idxMotorVel(i)] = 0
		s.X[idxLinkPos(i)] = jp[i]
		s.X[idxLinkVel(i)] = 0
	}
}

// JointParams are the physical constants of one joint's two-mass model.
// The motor rotor (inertia Jm) drives the link (inertia Jl, reflected
// through transmission ratio N) through an elastic cable of stiffness K and
// damping B. Gravity acts on the link side.
type JointParams struct {
	// Motor side.
	MotorInertia float64 // Jm, kg m^2 (rotor + capstan)
	MotorDamping float64 // Bm, N m s/rad viscous

	// Transmission.
	Ratio          float64 // N, motor units per joint unit
	CableStiffness float64 // K, N m/rad (revolute) or N/m (prismatic), link side
	CableDamping   float64 // B, same unit family as K but per velocity

	// Link side.
	LinkInertia float64 // Jl, kg m^2 (revolute) or kg (prismatic)
	LinkDamping float64 // Bl, viscous
	Coulomb     float64 // link-side Coulomb friction magnitude

	// Gravity model: torque = GravConst * sin(pos + GravPhase) for revolute
	// joints; constant force GravConst for the prismatic joint (GravSin
	// false).
	GravConst float64
	GravPhase float64
	GravSin   bool
}

// Params bundles the three joints' constants.
type Params struct {
	Joints [kinematics.NumJoints]JointParams
}

// Validate returns an error when any constant is non-physical (zero or
// negative inertia/stiffness, negative damping).
func (p Params) Validate() error {
	for i, j := range p.Joints {
		switch {
		case j.MotorInertia <= 0:
			return fmt.Errorf("dynamics: joint %d motor inertia %v must be > 0", i, j.MotorInertia)
		case j.LinkInertia <= 0:
			return fmt.Errorf("dynamics: joint %d link inertia %v must be > 0", i, j.LinkInertia)
		case j.CableStiffness <= 0:
			return fmt.Errorf("dynamics: joint %d cable stiffness %v must be > 0", i, j.CableStiffness)
		case j.Ratio == 0:
			return fmt.Errorf("dynamics: joint %d transmission ratio must be nonzero", i)
		case j.MotorDamping < 0 || j.LinkDamping < 0 || j.CableDamping < 0 || j.Coulomb < 0:
			return fmt.Errorf("dynamics: joint %d damping/friction must be >= 0", i)
		}
	}
	return nil
}

// DefaultParams returns the nominal RAVEN II constants used by the
// detector's model: MAXON RE40 motors on the two rotational axes, RE30 on
// the insertion axis, link properties from the CAD-derived values the paper
// describes, coefficients tuned (per the paper, following Haghighipanah et
// al.) so the model tracks the plant.
func DefaultParams() Params {
	tr := kinematics.DefaultTransmission()
	return Params{Joints: [kinematics.NumJoints]JointParams{
		kinematics.Shoulder: {
			MotorInertia:   142e-7, // RE40 rotor, kg m^2
			MotorDamping:   2e-5,
			Ratio:          tr.Ratio[kinematics.Shoulder],
			CableStiffness: 900, // N m/rad, link side
			CableDamping:   3.0,
			LinkInertia:    0.045, // kg m^2 about the shoulder axis
			LinkDamping:    0.4,
			Coulomb:        0.08,
			GravConst:      1.2, // m g r for the distal mass
			GravPhase:      0,
			GravSin:        true,
		},
		kinematics.Elbow: {
			MotorInertia:   142e-7,
			MotorDamping:   2e-5,
			Ratio:          tr.Ratio[kinematics.Elbow],
			CableStiffness: 650,
			CableDamping:   2.2,
			LinkInertia:    0.021,
			LinkDamping:    0.25,
			Coulomb:        0.05,
			GravConst:      0.8,
			GravPhase:      -0.4,
			GravSin:        true,
		},
		kinematics.Insert: {
			MotorInertia:   33.5e-7, // RE30 rotor
			MotorDamping:   1e-5,
			Ratio:          tr.Ratio[kinematics.Insert],
			CableStiffness: 14000, // N/m along the tool axis
			CableDamping:   45,
			LinkInertia:    0.18, // kg, instrument + carriage mass
			LinkDamping:    6.0,
			Coulomb:        0.7, // N sliding friction
			GravConst:      0.9, // N, component of weight along tool axis
			GravSin:        false,
		},
	}}
}
