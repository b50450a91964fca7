package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// thresholdsFile is the on-disk JSON schema for learned thresholds.
type thresholdsFile struct {
	Version    int        `json:"version"`
	MotorVel   [3]float64 `json:"motor_vel_rad_s"`
	MotorAccel [3]float64 `json:"motor_accel_rad_s2"`
	JointVel   [3]float64 `json:"joint_vel"`
}

// thresholdsFileVersion identifies the serialisation format.
const thresholdsFileVersion = 1

// Write serialises the thresholds as JSON.
func (th Thresholds) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(thresholdsFile{
		Version:    thresholdsFileVersion,
		MotorVel:   th.MotorVel,
		MotorAccel: th.MotorAccel,
		JointVel:   th.JointVel,
	}); err != nil {
		return fmt.Errorf("core: encode thresholds: %w", err)
	}
	return nil
}

// Save writes the thresholds to a JSON file.
func (th Thresholds) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := th.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadThresholds parses thresholds from JSON and validates them. The
// input must hold exactly one JSON object: anything after it but
// whitespace is rejected.
func ReadThresholds(r io.Reader) (Thresholds, error) {
	var tf thresholdsFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return Thresholds{}, fmt.Errorf("core: decode thresholds: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Thresholds{}, fmt.Errorf("core: decode thresholds: trailing data after the object")
	}
	if tf.Version != thresholdsFileVersion {
		return Thresholds{}, fmt.Errorf("core: unsupported thresholds version %d", tf.Version)
	}
	th := Thresholds{MotorVel: tf.MotorVel, MotorAccel: tf.MotorAccel, JointVel: tf.JointVel}
	if err := th.Validate(); err != nil {
		return Thresholds{}, err
	}
	return th, nil
}

// LoadThresholds reads thresholds from a JSON file.
func LoadThresholds(path string) (Thresholds, error) {
	f, err := os.Open(path)
	if err != nil {
		return Thresholds{}, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return ReadThresholds(f)
}
