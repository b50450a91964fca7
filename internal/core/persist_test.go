package core

import (
	"strings"
	"testing"
)

func TestThresholdsSaveLoadRoundTrip(t *testing.T) {
	th := DefaultThresholds()
	path := t.TempDir() + "/thresholds.json"
	if err := th.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadThresholds(path)
	if err != nil {
		t.Fatal(err)
	}
	if back != th {
		t.Fatalf("round trip: %+v vs %+v", back, th)
	}
}

// validThresholdsJSON is an accepted thresholds file.
const validThresholdsJSON = `{"version":1,"motor_vel_rad_s":[1,1,1],"motor_accel_rad_s2":[1,1,1],"joint_vel":[1,1,1]}`

func TestReadThresholdsRejects(t *testing.T) {
	if _, err := ReadThresholds(strings.NewReader(validThresholdsJSON)); err != nil {
		t.Fatalf("the valid prefix of the trailing-data cases is rejected: %v", err)
	}
	tests := []struct {
		name string
		json string
	}{
		{"garbage", "not json"},
		{"wrong version", `{"version":9,"motor_vel_rad_s":[1,1,1],"motor_accel_rad_s2":[1,1,1],"joint_vel":[1,1,1]}`},
		{"non-positive limit", `{"version":1,"motor_vel_rad_s":[0,1,1],"motor_accel_rad_s2":[1,1,1],"joint_vel":[1,1,1]}`},
		{"trailing garbage", validThresholdsJSON + "garbage"},
		{"second object", validThresholdsJSON + `{"version":2}`},
		{"trailing bracket", validThresholdsJSON + "]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadThresholds(strings.NewReader(tt.json)); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestLoadThresholdsMissingFile(t *testing.T) {
	if _, err := LoadThresholds(t.TempDir() + "/nope.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
