// Package motor models the DC motors and current amplifiers of the RAVEN II
// robot: MAXON RE40 motors on the two rotational positioning axes and a
// MAXON RE30 on the tool-insertion axis. The motor controllers on the USB
// interface board are current amplifiers commanded through 16-bit DACs;
// this package converts DAC counts to amplifier current to shaft torque and
// models encoder quantisation on the feedback path.
package motor

import (
	"fmt"
	"math"

	"ravenguard/internal/mathx"
)

// DAC command range of the 16-bit converters on the USB interface board.
const (
	DACMax = 32767
	DACMin = -32768
)

// Spec holds the electromechanical constants of one motor + amplifier +
// encoder channel.
type Spec struct {
	Name           string
	TorqueConstant float64 // Kt, N m/A
	RotorInertia   float64 // kg m^2 (informational; dynamics carries its own)
	FullScaleAmp   float64 // amplifier current at DAC full scale, A
	EncoderCPR     int     // encoder counts per motor revolution (quadrature)
}

// RE40 returns the MAXON RE40 (148877) channel used by the shoulder and
// elbow axes: Kt = 30.2 mNm/A, amplifier full scale 8 A.
func RE40() Spec {
	return Spec{
		Name:           "MAXON RE40",
		TorqueConstant: 0.0302,
		RotorInertia:   142e-7,
		FullScaleAmp:   8.0,
		EncoderCPR:     4000,
	}
}

// RE30 returns the MAXON RE30 (310007) channel used by the insertion axis:
// Kt = 25.9 mNm/A, amplifier full scale 4 A.
func RE30() Spec {
	return Spec{
		Name:           "MAXON RE30",
		TorqueConstant: 0.0259,
		RotorInertia:   33.5e-7,
		FullScaleAmp:   4.0,
		EncoderCPR:     4000,
	}
}

// Validate returns an error for non-physical constants.
func (s Spec) Validate() error {
	switch {
	case s.TorqueConstant <= 0:
		return fmt.Errorf("motor: %s torque constant %v must be > 0", s.Name, s.TorqueConstant)
	case s.FullScaleAmp <= 0:
		return fmt.Errorf("motor: %s full-scale current %v must be > 0", s.Name, s.FullScaleAmp)
	case s.EncoderCPR <= 0:
		return fmt.Errorf("motor: %s encoder CPR %d must be > 0", s.Name, s.EncoderCPR)
	}
	return nil
}

// DACToCurrent converts a DAC command to amplifier output current in amps,
// saturating at the DAC range.
func (s Spec) DACToCurrent(dac int16) float64 {
	return float64(dac) / DACMax * s.FullScaleAmp
}

// DACToTorque converts a DAC command to motor shaft torque in N m.
func (s Spec) DACToTorque(dac int16) float64 {
	return s.DACToCurrent(dac) * s.TorqueConstant
}

// TorqueToDAC converts a desired shaft torque to the nearest DAC command,
// saturating at the converter limits. This is the output stage of the PID
// controller. A NaN torque — only reachable when an upstream fault slipped
// a non-finite value through every sanitizer — commands zero current: the
// float-to-int16 conversion of NaN is platform-defined and must never pick
// the DAC value.
func (s Spec) TorqueToDAC(torque float64) int16 {
	if math.IsNaN(torque) {
		return 0
	}
	current := torque / s.TorqueConstant
	counts := math.Round(current / s.FullScaleAmp * DACMax)
	return int16(mathx.Clamp(counts, DACMin, DACMax))
}

// CountsPerRad returns encoder counts per radian of shaft rotation.
func (s Spec) CountsPerRad() float64 {
	return float64(s.EncoderCPR) / (2 * math.Pi)
}

// EncoderCounts converts a shaft angle to whole encoder counts
// (floor-quantised). Encoder quantisation is a real noise source for the
// detector's model resynchronisation, and the plant applies it to all
// feedback.
func (s Spec) EncoderCounts(angle float64) int32 {
	return int32(math.Floor(angle * s.CountsPerRad()))
}

// AngleFromCounts converts encoder counts back to a shaft angle in radians.
func (s Spec) AngleFromCounts(counts int32) float64 {
	return float64(counts) / s.CountsPerRad()
}

// Bank is the set of motor channels for one arm's positioning joints, in
// joint order (shoulder, elbow, insertion).
type Bank [3]Spec

// DefaultBank returns the RAVEN II arm configuration: RE40, RE40, RE30.
func DefaultBank() Bank { return Bank{RE40(), RE40(), RE30()} }

// Validate checks every channel.
func (b Bank) Validate() error {
	for i, s := range b {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("motor: channel %d: %w", i, err)
		}
	}
	return nil
}
