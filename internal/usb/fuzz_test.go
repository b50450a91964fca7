package usb

import (
	"math"
	"math/rand"
	"testing"
)

// addFrameSeeds seeds a codec fuzz target with each well-formed frame,
// the frame one byte short and one byte long, and the empty frame.
func addFrameSeeds(f *testing.F, frames ...[]byte) {
	for _, fr := range frames {
		f.Add(fr)
		f.Add(fr[:len(fr)-1])
		f.Add(append(append([]byte(nil), fr...), 0xA5))
	}
	f.Add([]byte{})
}

func FuzzDecodeCommand(f *testing.F) {
	var seeds [][]byte
	for _, c := range []Command{
		{},
		{StateNibble: 0x0F, Watchdog: true, Seq: 9, DAC: [NumChannels]int16{123, -456, math.MaxInt16}},
		{StateNibble: 0x03, Seq: math.MaxUint8, DAC: [NumChannels]int16{math.MinInt16, 0, 1, -1, 2, -2, 3, -3}},
	} {
		fr := c.Encode()
		seeds = append(seeds, fr[:])
	}
	// Byte 0's high bits lie outside the defined layout.
	hi := Command{StateNibble: 0x0F, Watchdog: true}.Encode()
	hi[StateByte] |= 0xE0
	seeds = append(seeds, hi[:])
	addFrameSeeds(f, seeds...)

	f.Fuzz(func(t *testing.T, frame []byte) {
		cmd, err := DecodeCommand(frame)
		if len(frame) != CommandLen {
			if err == nil || cmd != (Command{}) {
				t.Fatalf("length-%d frame: got %+v, %v; want the zero command and an error", len(frame), cmd, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-sized frame rejected: %v", err)
		}
		// Re-encoding reproduces the wire bytes except the high bits of
		// Byte 0 beyond the defined layout (the codec masks them).
		want := [CommandLen]byte(frame)
		want[StateByte] &= StateMask | WatchdogBit
		if back := cmd.Encode(); back != want {
			t.Fatalf("decode/encode changed the frame:\n in %x\nout %x", frame, back)
		}
	})
}

func FuzzDecodeFeedback(f *testing.F) {
	var seeds [][]byte
	for _, fb := range []Feedback{
		{},
		{StatusEcho: 0x1F, Seq: 9, Encoder: [NumChannels]int32{100, -200, math.MaxInt32}},
		{StatusEcho: 0xFF, Seq: math.MaxUint8, Encoder: [NumChannels]int32{math.MinInt32, 0, 1, -1, 2, -2, 3, -3}},
	} {
		fr := fb.Encode()
		seeds = append(seeds, fr[:])
	}
	addFrameSeeds(f, seeds...)

	f.Fuzz(func(t *testing.T, frame []byte) {
		fb, err := DecodeFeedback(frame)
		if len(frame) != FeedbackLen {
			if err == nil || fb != (Feedback{}) {
				t.Fatalf("length-%d frame: got %+v, %v; want the zero feedback and an error", len(frame), fb, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-sized frame rejected: %v", err)
		}
		if back := fb.Encode(); back != [FeedbackLen]byte(frame) {
			t.Fatalf("decode/encode changed the frame:\n in %x\nout %x", frame, back)
		}
	})
}

func TestDecodeFeedbackWrongLengthErrorsCleanly(t *testing.T) {
	// Any frame that is not exactly FeedbackLen bytes — the shapes the
	// fault injector's dropout produces — must yield an error, never a
	// panic or a half-decoded feedback.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(2 * FeedbackLen)
		if n == FeedbackLen {
			n++
		}
		junk := make([]byte, n)
		rng.Read(junk)
		fb, err := DecodeFeedback(junk)
		if err == nil {
			t.Fatalf("length-%d frame decoded", n)
		}
		if fb != (Feedback{}) {
			t.Fatalf("length-%d frame returned non-zero feedback %+v alongside error", n, fb)
		}
	}
	if _, err := DecodeFeedback(nil); err == nil {
		t.Fatal("nil frame decoded")
	}
}

func TestBoardReadFaultGarbageNeverPanics(t *testing.T) {
	// A hostile read-fault hook may hand back garbage of any length;
	// ReadFeedback must pass it through untouched and the decode stage
	// must fail cleanly.
	b := NewBoard()
	rng := rand.New(rand.NewSource(13))
	b.SetReadFault(func(frame []byte) []byte {
		junk := make([]byte, rng.Intn(64))
		rng.Read(junk)
		return junk
	})
	for i := 0; i < 2000; i++ {
		frame := b.ReadFeedback()
		if _, err := DecodeFeedback(frame); err == nil && len(frame) != FeedbackLen {
			t.Fatalf("length-%d frame decoded", len(frame))
		}
	}
}

func TestBoardStallFreezesFeedbackAndDropsCommands(t *testing.T) {
	// A stalled board must freeze its feedback frame, reject incoming
	// command frames (counting them) and resume cleanly afterwards.
	b := NewBoard()
	b.SetEncoders([NumChannels]int32{100, 200, 300})
	before := b.ReadFeedback()

	b.SetStalled(true)
	if !b.Stalled() {
		t.Fatal("board not stalled after SetStalled(true)")
	}
	good := Command{StateNibble: 0x0F, Seq: 3, DAC: [NumChannels]int16{42}}.Encode()
	if err := b.Receive(good[:]); err == nil {
		t.Fatal("stalled board accepted a command frame")
	}
	if b.StallDrops() != 1 {
		t.Fatalf("StallDrops = %d, want 1", b.StallDrops())
	}
	b.SetEncoders([NumChannels]int32{999, 999, 999})
	frozen := b.ReadFeedback()
	for i := range before {
		if frozen[i] != before[i] {
			t.Fatalf("stalled feedback changed at byte %d: %#02x -> %#02x", i, before[i], frozen[i])
		}
	}

	b.SetStalled(false)
	if err := b.Receive(good[:]); err != nil {
		t.Fatalf("recovered board rejected a good frame: %v", err)
	}
	fb, err := DecodeFeedback(b.ReadFeedback())
	if err != nil {
		t.Fatal(err)
	}
	if fb.Encoder[0] != 999 {
		t.Fatalf("recovered feedback still frozen: %+v", fb)
	}
}

func TestBoardSurvivesGarbageStream(t *testing.T) {
	// A board fed random garbage of random lengths must never panic and
	// must keep serving its last well-formed command.
	b := NewBoard()
	good := Command{StateNibble: 0x0F, Seq: 9, DAC: [NumChannels]int16{123}}.Encode()
	if err := b.Receive(good[:]); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(64)
		if n == CommandLen {
			n++ // keep every frame malformed in this storm
		}
		junk := make([]byte, n)
		rng.Read(junk)
		_ = b.Receive(junk) // errors expected; must not disturb state
	}
	if b.DAC(0) != 123 || b.LastSeq() != 9 {
		t.Fatalf("garbage storm disturbed the latched command: DAC0=%d seq=%d", b.DAC(0), b.LastSeq())
	}
	if rx, bad := b.Stats(); rx != 1 || bad != 2000 {
		t.Fatalf("stats = %d/%d", rx, bad)
	}
}
