package dynamics

import (
	"fmt"
	"math"

	"ravenguard/internal/kinematics"
)

// The reference integration path: a generic ODE integrator interface
// driving the manipulator model through a derivative closure. Production
// code steps the fused Stepper/BatchStepper kernels; these are the
// independent spelling the fused kernels are pinned against, and the
// baseline the *Reference benchmarks measure.

// Deriv computes the time derivative of state x at time t into dx.
// dx and x always have equal length; implementations must not retain either
// slice.
type Deriv func(t float64, x, dx []float64)

// Integrator advances an ODE state by a fixed step.
type Integrator interface {
	// Step advances x (in place) from time t by dt using f.
	Step(f Deriv, t float64, x []float64, dt float64)
	// Name returns the scheme's human-readable name for reports.
	Name() string
}

// Euler is the explicit (forward) Euler scheme: one derivative evaluation
// per step. The paper found it the best runtime/accuracy trade-off at a
// 1 ms step for the RAVEN model.
type Euler struct {
	scratch []float64
}

var _ Integrator = (*Euler)(nil)

// NewEuler returns an Euler integrator for states of dimension n.
func NewEuler(n int) *Euler { return &Euler{scratch: make([]float64, n)} }

// Step advances x in place by one Euler step.
func (e *Euler) Step(f Deriv, t float64, x []float64, dt float64) {
	if len(x) != len(e.scratch) {
		panic(fmt.Sprintf("dynamics: Euler state dim %d, want %d", len(x), len(e.scratch)))
	}
	f(t, x, e.scratch)
	for i := range x {
		x[i] += dt * e.scratch[i]
	}
}

// Name implements Integrator.
func (e *Euler) Name() string { return EulerName }

// RK4 is the classical 4th-order Runge-Kutta scheme: four derivative
// evaluations per step, ~3x the cost of Euler but 4th-order accurate.
type RK4 struct {
	k1, k2, k3, k4, tmp []float64
}

var _ Integrator = (*RK4)(nil)

// NewRK4 returns an RK4 integrator for states of dimension n.
func NewRK4(n int) *RK4 {
	return &RK4{
		k1:  make([]float64, n),
		k2:  make([]float64, n),
		k3:  make([]float64, n),
		k4:  make([]float64, n),
		tmp: make([]float64, n),
	}
}

// Step advances x in place by one RK4 step.
func (r *RK4) Step(f Deriv, t float64, x []float64, dt float64) {
	n := len(r.k1)
	if len(x) != n {
		panic(fmt.Sprintf("dynamics: RK4 state dim %d, want %d", len(x), n))
	}
	f(t, x, r.k1)
	for i := 0; i < n; i++ {
		r.tmp[i] = x[i] + dt/2*r.k1[i]
	}
	f(t+dt/2, r.tmp, r.k2)
	for i := 0; i < n; i++ {
		r.tmp[i] = x[i] + dt/2*r.k2[i]
	}
	f(t+dt/2, r.tmp, r.k3)
	for i := 0; i < n; i++ {
		r.tmp[i] = x[i] + dt*r.k3[i]
	}
	f(t+dt, r.tmp, r.k4)
	for i := 0; i < n; i++ {
		x[i] += dt / 6 * (r.k1[i] + 2*r.k2[i] + 2*r.k3[i] + r.k4[i])
	}
}

// Name implements Integrator.
func (r *RK4) Name() string { return RK4Name }

// NewIntegrator constructs an integrator by scheme name ("euler" or "rk4")
// for states of dimension n. Unknown names return an error so configuration
// typos fail loudly.
func NewIntegrator(scheme string, n int) (Integrator, error) {
	switch scheme {
	case "euler":
		return NewEuler(n), nil
	case "rk4":
		return NewRK4(n), nil
	default:
		return nil, fmt.Errorf("dynamics: unknown integrator scheme %q (want \"euler\" or \"rk4\")", scheme)
	}
}

// Model evaluates the manipulator ODE for a given torque input. The torque
// input is held constant across a step (zero-order hold, matching the 1 kHz
// DAC update of the control loop).
type Model struct {
	params Params
	torque [kinematics.NumJoints]float64 // motor torques, N m, zero-order hold
}

// NewModel builds a Model, validating the parameters.
func NewModel(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{params: p}, nil
}

// Params returns the model constants.
func (m *Model) Params() Params { return m.params }

// SetTorque fixes the motor torque input (N m per motor) for subsequent
// derivative evaluations.
func (m *Model) SetTorque(tau [kinematics.NumJoints]float64) { m.torque = tau }

// Torque returns the currently applied motor torques.
func (m *Model) Torque() [kinematics.NumJoints]float64 { return m.torque }

// Deriv evaluates the two-mass dynamics:
//
//	cable  = K*(mpos/N - lpos) + B*(mvel/N - lvel)
//	Jm a_m = tau - Bm*mvel - cable/N
//	Jl a_l = cable - Bl*lvel - coulomb*sign(lvel) - grav(lpos)
func (m *Model) Deriv(_ float64, x, dx []float64) {
	for i := 0; i < kinematics.NumJoints; i++ {
		p := &m.params.Joints[i]
		mpos, mvel := x[idxMotorPos(i)], x[idxMotorVel(i)]
		lpos, lvel := x[idxLinkPos(i)], x[idxLinkVel(i)]

		stretch := mpos/p.Ratio - lpos
		stretchVel := mvel/p.Ratio - lvel
		cable := p.CableStiffness*stretch + p.CableDamping*stretchVel

		grav := p.GravConst
		if p.GravSin {
			grav = p.GravConst * math.Sin(lpos+p.GravPhase)
		}
		coulomb := p.Coulomb * smoothSign(lvel)

		dx[idxMotorPos(i)] = mvel
		dx[idxMotorVel(i)] = (m.torque[i] - p.MotorDamping*mvel - cable/p.Ratio) / p.MotorInertia
		dx[idxLinkPos(i)] = lvel
		dx[idxLinkVel(i)] = (cable - p.LinkDamping*lvel - coulomb - grav) / p.LinkInertia
	}
}

// smoothSign is a tanh-smoothed signum that keeps the ODE Lipschitz at zero
// velocity (a hard signum makes fixed-step integrators chatter).
func smoothSign(v float64) float64 { return math.Tanh(v / 0.02) }
