package statemachine

import (
	"math/rand"
	"testing"
)

func TestHappyPath(t *testing.T) {
	m := New()
	if m.State() != EStop {
		t.Fatalf("power-up state = %v, want E-STOP", m.State())
	}
	steps := []struct {
		ev   Event
		want State
	}{
		{EvStartButton, Init},
		{EvHomingDone, PedalUp},
		{EvPedalPress, PedalDown},
		{EvPedalRelease, PedalUp},
		{EvPedalPress, PedalDown},
		{EvEStop, EStop},
	}
	for _, s := range steps {
		if got, changed := m.Apply(s.ev); got != s.want || !changed {
			t.Fatalf("after %v: state = %v (changed %v), want a transition to %v", s.ev, got, changed, s.want)
		}
	}
}

func TestIllegalEventsIgnored(t *testing.T) {
	tests := []struct {
		name  string
		setup []Event
		ev    Event
	}{
		{"pedal press in E-STOP", nil, EvPedalPress},
		{"pedal press during Init", []Event{EvStartButton}, EvPedalPress},
		{"homing done in E-STOP", nil, EvHomingDone},
		{"start button while homed", []Event{EvStartButton, EvHomingDone}, EvStartButton},
		{"pedal release in Pedal Up", []Event{EvStartButton, EvHomingDone}, EvPedalRelease},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := New()
			for _, ev := range tt.setup {
				m.Apply(ev)
			}
			before := m.State()
			got, changed := m.Apply(tt.ev)
			if changed || got != before {
				t.Fatalf("illegal event %v changed state %v -> %v", tt.ev, before, got)
			}
		})
	}
}

func TestEStopFromEveryState(t *testing.T) {
	paths := [][]Event{
		{},
		{EvStartButton},
		{EvStartButton, EvHomingDone},
		{EvStartButton, EvHomingDone, EvPedalPress},
	}
	for _, path := range paths {
		m := New()
		for _, ev := range path {
			m.Apply(ev)
		}
		if got, _ := m.Apply(EvEStop); got != EStop {
			t.Fatalf("E-STOP from %v path gave %v", path, got)
		}
	}
}

func TestBrakesAndTeleop(t *testing.T) {
	m := New()
	if !m.BrakesEngaged() || m.State() == PedalDown {
		t.Fatal("E-STOP must brake and not teleoperate")
	}
	m.Apply(EvStartButton)
	if m.BrakesEngaged() {
		t.Fatal("Init must release brakes for homing")
	}
	m.Apply(EvHomingDone)
	if !m.BrakesEngaged() {
		t.Fatal("Pedal Up must brake")
	}
	m.Apply(EvPedalPress)
	if m.BrakesEngaged() || m.State() != PedalDown {
		t.Fatal("Pedal Down must release brakes and teleoperate")
	}
}

func TestNibbleRoundTrip(t *testing.T) {
	for _, s := range []State{EStop, Init, PedalUp, PedalDown} {
		got, ok := FromNibble(s.Nibble())
		if !ok || got != s {
			t.Fatalf("FromNibble(Nibble(%v)) = %v, %v", s, got, ok)
		}
		// The watchdog bit must not disturb decoding.
		got, ok = FromNibble(s.Nibble() | 0x10)
		if !ok || got != s {
			t.Fatalf("FromNibble with watchdog bit: %v, %v", got, ok)
		}
	}
}

func TestNibbleValuesDistinct(t *testing.T) {
	seen := map[byte]State{}
	for _, s := range []State{EStop, Init, PedalUp, PedalDown} {
		n := s.Nibble()
		if prev, dup := seen[n]; dup {
			t.Fatalf("states %v and %v share nibble %#x", prev, s, n)
		}
		seen[n] = s
	}
	// Pedal Down must encode as 0x0F — the value the paper's attacker
	// triggers on ("the values 31 (0x1F) or 15 (0x0F) in Byte 0").
	if PedalDown.Nibble() != 0x0F {
		t.Fatalf("PedalDown nibble = %#x, want 0x0F", PedalDown.Nibble())
	}
}

func TestFromNibbleUnknown(t *testing.T) {
	if _, ok := FromNibble(0x05); ok {
		t.Fatal("unknown nibble accepted")
	}
}

func TestStringsNonEmpty(t *testing.T) {
	for _, s := range []State{EStop, Init, PedalUp, PedalDown, State(99)} {
		if s.String() == "" {
			t.Fatalf("State(%d).String() empty", s)
		}
	}
	for _, e := range []Event{EvStartButton, EvHomingDone, EvPedalPress, EvPedalRelease, EvEStop, Event(99)} {
		if e.String() == "" {
			t.Fatalf("Event(%d).String() empty", e)
		}
	}
}

func TestRandomEventStormNeverInvalid(t *testing.T) {
	// Property: under any event sequence the machine stays in one of the
	// four defined states and transition counting stays consistent.
	rng := rand.New(rand.NewSource(99))
	m := New()
	events := []Event{EvStartButton, EvHomingDone, EvPedalPress, EvPedalRelease, EvEStop}
	prev := m.State()
	for i := 0; i < 10000; i++ {
		ev := events[rng.Intn(len(events))]
		got, changed := m.Apply(ev)
		switch got {
		case EStop, Init, PedalUp, PedalDown:
		default:
			t.Fatalf("invalid state %v after %v", got, ev)
		}
		if changed == (got == prev) {
			t.Fatalf("changed=%v but %v -> %v", changed, prev, got)
		}
		prev = got
	}
}
