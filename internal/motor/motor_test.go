package motor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpecsValid(t *testing.T) {
	for _, s := range []Spec{RE40(), RE30()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if err := DefaultBank().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero Kt", func(s *Spec) { s.TorqueConstant = 0 }},
		{"negative full scale", func(s *Spec) { s.FullScaleAmp = -1 }},
		{"zero CPR", func(s *Spec) { s.EncoderCPR = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := RE40()
			tt.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Fatal("Validate accepted bad spec")
			}
		})
	}
}

func TestDACFullScale(t *testing.T) {
	s := RE40()
	if got := s.DACToCurrent(DACMax); !approx(got, s.FullScaleAmp, 1e-9) {
		t.Fatalf("full-scale DAC -> %v A, want %v", got, s.FullScaleAmp)
	}
	if got := s.DACToCurrent(0); got != 0 {
		t.Fatalf("zero DAC -> %v A", got)
	}
	if got := s.DACToTorque(DACMax); !approx(got, s.FullScaleAmp*s.TorqueConstant, 1e-9) {
		t.Fatalf("full-scale torque = %v", got)
	}
}

func TestTorqueToDACRoundTrip(t *testing.T) {
	s := RE40()
	for _, tau := range []float64{0, 0.01, -0.05, 0.1, -0.2} {
		dac := s.TorqueToDAC(tau)
		back := s.DACToTorque(dac)
		// One DAC count of torque resolution.
		res := s.FullScaleAmp * s.TorqueConstant / DACMax
		if math.Abs(back-tau) > res {
			t.Errorf("torque %v -> DAC %d -> %v (res %v)", tau, dac, back, res)
		}
	}
}

func TestTorqueToDACSaturates(t *testing.T) {
	s := RE30()
	if got := s.TorqueToDAC(10); got != DACMax {
		t.Fatalf("huge torque -> %d, want %d", got, DACMax)
	}
	if got := s.TorqueToDAC(-10); got != DACMin {
		t.Fatalf("huge negative torque -> %d, want %d", got, DACMin)
	}
}

func TestTorqueToDACMonotoneQuick(t *testing.T) {
	s := RE40()
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return s.TorqueToDAC(a) <= s.TorqueToDAC(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// reported is the shaft angle as the encoder reports it: the angle of
// its whole-count reading.
func reported(s Spec, angle float64) float64 { return s.AngleFromCounts(s.EncoderCounts(angle)) }

func TestQuantizeResolution(t *testing.T) {
	s := RE40()
	res := 2 * math.Pi / float64(s.EncoderCPR)
	for _, angle := range []float64{0, 0.1, 1.234, 17.5, -3.3} {
		q := reported(s, angle)
		if diff := angle - q; diff < 0 || diff >= res+1e-12 {
			t.Errorf("encoder reports %v as %v, diff %v outside [0, %v)", angle, q, diff, res)
		}
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	s := RE30()
	for _, angle := range []float64{0.37, -2.2, 100.5} {
		q := reported(s, angle)
		if q2 := reported(s, q); math.Abs(q2-q) > 1e-12 {
			t.Errorf("encoder quantisation not idempotent at %v: %v then %v", angle, q, q2)
		}
	}
}

func TestEncoderCountsRoundTrip(t *testing.T) {
	s := RE40()
	half := 0.5 / s.CountsPerRad()
	for _, angle := range []float64{0, 1.5, -0.7, 12.0} {
		counts := s.EncoderCounts(angle)
		if back := s.EncoderCounts(s.AngleFromCounts(counts) + half); back != counts {
			t.Errorf("counts round trip at %v: %d -> %d", angle, counts, back)
		}
	}
}

func TestBankLayout(t *testing.T) {
	b := DefaultBank()
	if b[0].Name != "MAXON RE40" || b[1].Name != "MAXON RE40" || b[2].Name != "MAXON RE30" {
		t.Fatalf("bank layout = %v,%v,%v", b[0].Name, b[1].Name, b[2].Name)
	}
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
