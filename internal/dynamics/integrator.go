// Package dynamics implements the continuous-time dynamic model of the
// RAVEN II manipulator used both by the physical-plant simulator and by the
// paper's detection framework: a two-mass (motor / cable / link) second-order
// ODE per positioning joint, together with the two fixed-step integration
// schemes the paper compares — explicit Euler and 4th-order Runge-Kutta
// (Figure 8).
package dynamics

// Human-readable scheme names, shared by the reference integrators' Name
// methods and every report/benchmark that matches on them — matching on a copied
// string literal has already caused a benchmark to silently measure
// nothing.
const (
	EulerName = "Euler"
	RK4Name   = "4th Order Runge Kutta"
)

// SchemeName maps a configuration scheme string ("euler" or "rk4") to
// its human-readable name, defaulting to the scheme itself for unknown
// values.
func SchemeName(scheme string) string {
	switch scheme {
	case "euler":
		return EulerName
	case "rk4":
		return RK4Name
	}
	return scheme
}

// ValidScheme reports whether scheme is a configuration name the fused
// Stepper's callers accept.
func ValidScheme(scheme string) bool {
	return scheme == "euler" || scheme == "rk4"
}
