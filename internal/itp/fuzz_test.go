package itp

import (
	"math"
	"testing"

	"ravenguard/internal/mathx"
)

// FuzzDecode drives the decoder — the first trust boundary, fed whatever
// arrives on the console socket — with arbitrary bytes. It must never
// panic, and every datagram it accepts must re-encode to the same bytes,
// apart from the flag bits and reserved byte it ignores. Plain go test
// runs the seed corpus; go test -fuzz FuzzDecode explores from it.
func FuzzDecode(f *testing.F) {
	seeds := []Packet{
		{},
		{Seq: 1, PedalDown: true},
		{Seq: math.MaxUint32, Start: true, EStop: true,
			Delta:    mathx.Vec3{X: 1e-4, Y: -2e-4, Z: 3e-5},
			OriDelta: [3]float64{0.01, -0.02, math.SmallestNonzeroFloat64}},
		{Seq: 7, PedalDown: true, Delta: mathx.Vec3{X: math.MaxFloat64, Y: -0.0}},
	}
	for _, p := range seeds {
		b := p.Encode()
		f.Add(b[:])
		f.Add(b[:PacketLen-1]) // truncated
	}
	bad := seeds[1].Encode()
	bad[0] ^= 0xff // broken magic
	f.Add(bad[:])
	nan := seeds[1].Encode()
	nan[8], nan[9] = 0x7f, 0xf8 // Delta.X = NaN
	f.Add(nan[:])

	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			return
		}
		want := [PacketLen]byte(b)
		want[6] &= FlagPedalDown | FlagStart | FlagEStop
		want[7] = 0
		if got := p.Encode(); got != want {
			t.Fatalf("accepted datagram does not round-trip:\n in %x\nout %x", want, got)
		}
	})
}

func TestDecodeTruncatedValidPacket(t *testing.T) {
	p := Packet{Seq: 1, PedalDown: true}
	buf := p.Encode()
	for n := 0; n < PacketLen; n++ {
		if _, err := Decode(buf[:n]); err == nil {
			t.Fatalf("truncated packet of %d bytes accepted", n)
		}
	}
}
