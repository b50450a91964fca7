// Package statemachine implements the operational state machine of the
// RAVEN II robot (paper Figure 1(c)): the robot starts in the emergency-stop
// state, runs an initialisation/homing sequence after the physical start
// button is pressed, then sits in "Pedal Up" (brakes engaged, console
// disengaged) until the operator presses the foot pedal, which moves it to
// "Pedal Down" (brakes released, teleoperation active). Any emergency-stop
// event — the physical button, a failed software safety check, or the PLC
// watchdog supervisor — latches the machine back to E-STOP.
package statemachine

import "fmt"

// State enumerates the operational states.
type State int

// Operational states, in the order the machine navigates them.
const (
	EStop State = iota + 1
	Init
	PedalUp
	PedalDown
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case EStop:
		return "E-STOP"
	case Init:
		return "Init"
	case PedalUp:
		return "Pedal Up"
	case PedalDown:
		return "Pedal Down"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Nibble returns the 4-bit encoding of the state carried in Byte 0 of the
// USB command packets. The values reproduce the pattern the paper's offline
// analysis discovers: Byte 0 switches among 8 values, or 4 once the
// toggling watchdog bit (bit 4) is masked out — 0x0F (decimal 15) means
// "Pedal Down".
func (s State) Nibble() byte {
	switch s {
	case EStop:
		return 0x00
	case Init:
		return 0x03
	case PedalUp:
		return 0x07
	case PedalDown:
		return 0x0F
	default:
		return 0x00
	}
}

// FromNibble maps a Byte 0 state nibble back to a State. Unknown nibbles
// return EStop and false.
func FromNibble(n byte) (State, bool) {
	switch n & 0x0F {
	case 0x00:
		return EStop, true
	case 0x03:
		return Init, true
	case 0x07:
		return PedalUp, true
	case 0x0F:
		return PedalDown, true
	default:
		return EStop, false
	}
}

// Event is an input to the state machine.
type Event int

// Events recognised by the machine.
const (
	EvStartButton  Event = iota + 1 // physical start button pressed
	EvHomingDone                    // initialisation sequence completed
	EvPedalPress                    // operator pressed the foot pedal
	EvPedalRelease                  // operator lifted the foot pedal
	EvEStop                         // any emergency-stop source
)

// String names the event for logs.
func (e Event) String() string {
	switch e {
	case EvStartButton:
		return "StartButton"
	case EvHomingDone:
		return "HomingDone"
	case EvPedalPress:
		return "PedalPress"
	case EvPedalRelease:
		return "PedalRelease"
	case EvEStop:
		return "EStop"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// Machine is the operational state machine. The zero value is not valid;
// use New. Machine is not safe for concurrent use: the control loop owns it.
type Machine struct {
	state State
}

// New returns a machine latched in E-STOP, as the robot powers up.
func New() *Machine { return &Machine{state: EStop} }

// State returns the current state.
func (m *Machine) State() State { return m.state }

// Apply processes an event and returns the resulting state plus whether the
// event caused a transition. Events that are not legal in the current state
// are ignored (the physical system simply does not react), with the
// exception of EvEStop which is accepted everywhere.
func (m *Machine) Apply(ev Event) (State, bool) {
	next := m.state
	switch ev {
	case EvEStop:
		next = EStop
	case EvStartButton:
		if m.state == EStop {
			next = Init
		}
	case EvHomingDone:
		if m.state == Init {
			next = PedalUp
		}
	case EvPedalPress:
		if m.state == PedalUp {
			next = PedalDown
		}
	case EvPedalRelease:
		if m.state == PedalDown {
			next = PedalUp
		}
	}
	changed := next != m.state
	if changed {
		m.state = next
	}
	return m.state, changed
}

// BrakesEngaged reports whether the fail-safe power-off brakes are engaged
// in the current state. Only Pedal Down releases the brakes; Init releases
// them partially for homing, which we model as released so the homing
// motion can run.
func (m *Machine) BrakesEngaged() bool {
	return m.state == EStop || m.state == PedalUp
}
