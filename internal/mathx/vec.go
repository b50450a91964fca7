// Package mathx provides the small linear-algebra and numeric helpers used
// across the RavenGuard simulation stack: 3-vectors, 3x3 rotation matrices,
// angle utilities, and clamping. Everything is allocation-free value types so
// the 1 kHz control loop and the detector's per-tick model step do not touch
// the garbage collector.
package mathx

import "math"

// Vec3 is a 3-component column vector (meters for positions, radians for
// axis-angle components).
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s * v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v . w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v x w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		X: v.Y*w.Z - v.Z*w.Y,
		Y: v.Z*w.X - v.X*w.Z,
		Z: v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v normalised to unit length. The zero vector is returned
// unchanged so callers do not have to special-case degenerate input.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// DistanceTo returns |v - w|.
func (v Vec3) DistanceTo(w Vec3) float64 { return v.Sub(w).Norm() }

// IsFinite reports whether all components are finite (no NaN/Inf).
func (v Vec3) IsFinite() bool {
	return isFinite(v.X) && isFinite(v.Y) && isFinite(v.Z)
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Mat3 is a row-major 3x3 matrix used for rotations.
type Mat3 struct {
	M [3][3]float64
}

// Mul returns the matrix product a * b.
func (a Mat3) Mul(b Mat3) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += a.M[i][k] * b.M[k][j]
			}
			out.M[i][j] = s
		}
	}
	return out
}

// Apply returns the matrix-vector product a * v.
func (a Mat3) Apply(v Vec3) Vec3 {
	return Vec3{
		X: a.M[0][0]*v.X + a.M[0][1]*v.Y + a.M[0][2]*v.Z,
		Y: a.M[1][0]*v.X + a.M[1][1]*v.Y + a.M[1][2]*v.Z,
		Z: a.M[2][0]*v.X + a.M[2][1]*v.Y + a.M[2][2]*v.Z,
	}
}

// RotX returns the rotation matrix about the X axis by angle radians.
func RotX(angle float64) Mat3 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat3{M: [3][3]float64{
		{1, 0, 0},
		{0, c, -s},
		{0, s, c},
	}}
}

// RotY returns the rotation matrix about the Y axis by angle radians.
func RotY(angle float64) Mat3 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat3{M: [3][3]float64{
		{c, 0, s},
		{0, 1, 0},
		{-s, 0, c},
	}}
}

// RotZ returns the rotation matrix about the Z axis by angle radians.
func RotZ(angle float64) Mat3 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat3{M: [3][3]float64{
		{c, -s, 0},
		{s, c, 0},
		{0, 0, 1},
	}}
}
