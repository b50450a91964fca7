package record

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzRead drives the recording reader, which replays whatever file an
// operator points ravend -replay at, with arbitrary bytes. It must never
// panic, through Read and on through Script, Trajectory, Pos and Ori; a
// rejected input must yield the zero Recording; and every accepted input
// must survive Write∘Read unchanged. The seeds are Recording.Write
// outputs, plus broken variants of one. Plain go test runs the seed
// corpus; go test -fuzz FuzzRead explores from it.
func FuzzRead(f *testing.F) {
	session := Recording{
		Header: Header{Version: FormatVersion, Period: 1e-3, Label: "seed é"},
		Ticks: []Tick{
			{T: 0.001, Start: true, State: "INIT"},
			{T: 0.002, Pedal: true, Delta: [3]float64{1e-4, -2e-4, 0}, OriDelta: [3]float64{0.01, 0, -0.02}, DAC: [3]int16{120, -32768, 32767}},
			{T: 0.003, Pedal: true, Delta: [3]float64{3e-4, 0, 5e-5}, TipX: 0.1, TipY: -0.2, TipZ: 0.3, State: "PEDAL_DOWN"},
			{T: 0.004, PLCEStop: true, GuardNote: "alarm\n"},
		},
	}
	// A period small enough that t/period overflows int in the replay's
	// tick lookup.
	tiny := Recording{Header: Header{Version: FormatVersion, Period: 1e-300}, Ticks: session.Ticks}
	for _, rec := range []Recording{session, tiny, {Header: session.Header}} {
		var buf bytes.Buffer
		if err := rec.Write(&buf); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		f.Add(b)
		f.Add(b[:len(b)/2])                                    // truncated
		f.Add(append(append([]byte(nil), b...), "garbage"...)) // trailing data
	}
	f.Add([]byte(`{"version":2,"period_s":0.001}`))
	f.Add([]byte(`{"version":1,"period_s":-1}`))
	f.Add([]byte(`{"version":1,"period_s":1e308} null {"dac":[1,2,3]}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := Read(bytes.NewReader(b))
		if err != nil {
			if !reflect.DeepEqual(rec, Recording{}) {
				t.Fatalf("rejected input returned %+v, want the zero value", rec)
			}
			return
		}
		_, _ = rec.Script()
		if replay, err := rec.Trajectory(); err == nil {
			d := replay.Duration()
			for _, tt := range []float64{-1, 0, rec.Header.Period, 0.5, 1, d / 2, d, d + 1, math.Inf(1), math.NaN()} {
				replay.Pos(tt)
				replay.Ori(tt)
			}
		}

		var buf bytes.Buffer
		if err := rec.Write(&buf); err != nil {
			t.Fatalf("accepted recording does not write: %v", err)
		}
		canon := append([]byte(nil), buf.Bytes()...)
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("written recording does not read back: %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("Write∘Read changed the recording:\n%+v\n%+v", rec, back)
		}
	})
}
