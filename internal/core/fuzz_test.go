package core

import (
	"bytes"
	"testing"
)

// FuzzReadThresholds drives the thresholds loader, which reads whatever
// file an operator points the guard at, with arbitrary bytes. It must
// never panic, a rejected input must yield the zero Thresholds, and every
// accepted file must survive Write∘Read unchanged. The seeds are
// Thresholds.Write outputs, plus broken variants of one. Plain go test
// runs the seed corpus; go test -fuzz FuzzReadThresholds explores from it.
func FuzzReadThresholds(f *testing.F) {
	small := Thresholds{
		MotorVel:   [3]float64{1e-9, 2.5, 3},
		MotorAccel: [3]float64{4, 5e300, 6},
		JointVel:   [3]float64{0.1, 0.2, 0.3},
	}
	for _, th := range []Thresholds{DefaultThresholds(), small} {
		var buf bytes.Buffer
		if err := th.Write(&buf); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		f.Add(b)
		f.Add(b[:len(b)/2])                                    // truncated
		f.Add(append(append([]byte(nil), b...), "garbage"...)) // trailing data
		f.Add(bytes.Replace(b, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		th, err := ReadThresholds(bytes.NewReader(b))
		if err != nil {
			if th != (Thresholds{}) {
				t.Fatalf("rejected input returned %+v, want the zero value", th)
			}
			return
		}
		var buf bytes.Buffer
		if err := th.Write(&buf); err != nil {
			t.Fatalf("accepted thresholds do not encode: %v", err)
		}
		back, err := ReadThresholds(&buf)
		if err != nil || back != th {
			t.Fatalf("accepted thresholds do not round-trip: %+v -> %+v, %v", th, back, err)
		}
	})
}
