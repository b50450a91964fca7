package robot

import (
	"fmt"

	"ravenguard/internal/dynamics"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/usb"
)

// LaneSet keeps plants resident in the lanes of one structure-of-arrays
// stepper (see dynamics.BatchStepper) while they step together tick after
// tick — the plant stage of sim.Lockstep, which drives both the fleet
// engine's sessions and the campaign fan-outs' forks. A plant's hot state
// is loaded into its lane when it unparks and stays there until the plant
// parks (brakes engage) or retires, so steady ticks copy nothing in.
//
// Lanes are partitioned into a dense active window [0, Active()) of
// unbraked plants that the fused stage kernels sweep in lockstep, and a
// parked tail [Active(), Resident()) of braked plants holding position on
// the cheap scalar path. Brake transitions move plants across the boundary
// by lane swaps; retirement compacts the tail. Every move is reported
// through the OnSwap callback so callers can mirror a lane→session mapping.
//
// Each plant's trajectory — state, rng stream, hard stops, cable breakage,
// wrist servo, local time — is bit-identical to stepping it alone with
// Plant.Step (pinned by laneset_test.go, hard stops and cable snaps
// included): residency changes where the state lives between ticks, not
// what any tick computes.
//
// A LaneSet is not safe for concurrent use: one worker loop owns it.
type LaneSet struct {
	bs       *dynamics.BatchStepper
	plants   []*Plant // by lane; [0,active) stepping, [active,resident) parked
	tau      [][kinematics.NumJoints]float64
	active   int
	resident int
	substeps int // homogeneous across admitted plants (0 until first Admit)

	// OnSwap, when set, is invoked after lanes a and b exchange plants —
	// including the self-swap a == b — so callers can mirror the move in
	// their own lane-indexed bookkeeping. Set before the first Admit.
	OnSwap func(a, b int)
}

// NewLaneSet builds a lane set able to host up to capacity resident plants.
func NewLaneSet(capacity int) (*LaneSet, error) {
	bs, err := dynamics.NewBatchStepper(capacity)
	if err != nil {
		return nil, fmt.Errorf("robot: %w", err)
	}
	return &LaneSet{
		bs:     bs,
		plants: make([]*Plant, capacity),
		tau:    make([][kinematics.NumJoints]float64, capacity),
	}, nil
}

// Capacity returns the lane capacity.
func (s *LaneSet) Capacity() int { return len(s.plants) }

// Active returns the number of unbraked plants in the stepping window.
func (s *LaneSet) Active() int { return s.active }

// Resident returns the number of plants currently holding lanes.
func (s *LaneSet) Resident() int { return s.resident }

// Plant returns the plant resident in lane (nil when the lane is free).
func (s *LaneSet) Plant(lane int) *Plant {
	if lane < 0 || lane >= s.resident {
		return nil
	}
	return s.plants[lane]
}

// Admit gives p a resident lane and returns its index. The plant joins the
// parked tail (fresh plants power up with brakes engaged; an unbraked
// admission migrates to the active window on the next Step). All residents
// must share one sub-step count — the lockstep sweep has a single cadence.
func (s *LaneSet) Admit(p *Plant) (int, error) {
	if s.resident >= len(s.plants) {
		return 0, fmt.Errorf("robot: lane set full (%d lanes)", len(s.plants))
	}
	if s.substeps == 0 {
		s.substeps = p.cfg.Substeps
	} else if p.cfg.Substeps != s.substeps {
		return 0, fmt.Errorf("robot: plant sub-step count %d differs from the set's %d", p.cfg.Substeps, s.substeps)
	}
	lane := s.resident
	s.plants[lane] = p
	s.resident++
	return lane, nil
}

// Retire releases lane: the plant's lane state — joint state vector plus
// the integrator's gravity anchors and held torque — is read back into the
// plant so scalar stepping resumes bit-identically, and the freed lane is
// compacted away by swaps. Returns the retired plant.
func (s *LaneSet) Retire(lane int) (*Plant, error) {
	if lane < 0 || lane >= s.resident {
		return nil, fmt.Errorf("robot: retire of non-resident lane %d", lane)
	}
	p := s.plants[lane]
	if lane < s.active {
		s.park(lane)
		lane = s.active // park left the plant as the first parked lane
	}
	s.swap(lane, s.resident-1)
	s.resident--
	s.plants[s.resident] = nil
	return p, nil
}

// swap exchanges lanes a and b — batch data and plant — and reports the
// move.
//
//ravenlint:noalloc
func (s *LaneSet) swap(a, b int) {
	s.bs.SwapLanes(a, b)
	s.plants[a], s.plants[b] = s.plants[b], s.plants[a]
	if s.OnSwap != nil {
		s.OnSwap(a, b)
	}
}

// park moves active lane out of the stepping window after reading its
// state back into the plant (the plant is canonical while braked: the
// scalar holding path mutates it directly).
//
//ravenlint:noalloc
func (s *LaneSet) park(lane int) {
	p := s.plants[lane]
	s.bs.LaneX(lane, &p.state.X)
	p.model.ReadLane(s.bs, lane)
	s.swap(lane, s.active-1)
	s.active--
}

// unpark moves parked lane into the stepping window, loading its lane from
// the plant (constants, anchors, held torque, state vector).
//
//ravenlint:noalloc
func (s *LaneSet) unpark(lane int) {
	s.swap(lane, s.active)
	p := s.plants[s.active]
	p.model.FillLane(s.bs, s.active)
	s.bs.SetLaneX(s.active, &p.state.X)
	s.active++
}

// Reconcile moves plants across the active/parked boundary to match the
// brake states set during the control phase. Call it after brakes may have
// changed and before assembling the per-lane DAC array for Step — the
// swaps it performs re-home lanes (reported via OnSwap), so DACs filled in
// earlier would address the wrong plants.
//
//ravenlint:noalloc
func (s *LaneSet) Reconcile() {
	// Parking swaps an unexamined lane into the cursor, so the cursor only
	// advances past lanes that stay active; unparking swaps an
	// already-examined braked lane outward, so that cursor always advances.
	for lane := 0; lane < s.active; {
		if s.plants[lane].brakes {
			s.park(lane)
		} else {
			lane++
		}
	}
	for lane := s.active; lane < s.resident; lane++ {
		if !s.plants[lane].brakes {
			s.unpark(lane)
		}
	}
}

// Step advances every resident plant by one control period dt, the plant
// in lane i driven by dacs[i] (braked plants ignore theirs). The partition
// must already match the brake states (call Reconcile first). It holds the
// parked tail on the scalar path, integrates the active window through the
// shared SoA kernels, and finally publishes each active lane's state
// vector back to its plant so encoder reads and observers see the fresh
// pose. Steady-state ticks are allocation-free.
//
//ravenlint:noalloc
func (s *LaneSet) Step(dacs [][usb.NumChannels]int16, dt float64) {
	// Parked tail: power-off brakes clamp the motors (scalar path).
	for lane := s.active; lane < s.resident; lane++ {
		s.plants[lane].stepBraked(dt)
	}

	n := s.active
	if n == 0 {
		return
	}
	// Once-per-period prep: DAC→torque and the wrist servo update.
	for lane := 0; lane < n; lane++ {
		s.tau[lane] = s.plants[lane].prepTick(dacs[lane], dt)
	}
	if err := s.bs.SetLanes(n); err != nil {
		panic(err) // unreachable: n <= capacity by construction
	}
	sub := dt / float64(s.substeps)
	for st := 0; st < s.substeps; st++ {
		// Each plant draws disturbances from its own rng, so its stream
		// matches the scalar path no matter how lanes are ordered.
		for lane := 0; lane < n; lane++ {
			s.bs.SetLaneTau(lane, s.plants[lane].noisyTau(s.tau[lane]))
		}
		s.bs.StepRK4All(sub)
		for lane := 0; lane < n; lane++ {
			p := s.plants[lane]
			p.t += sub
			laneHardStops(s.bs, lane, p)
			laneCheckCables(s.bs, lane, p)
		}
	}
	// Publish the fresh state vectors; anchors stay lane-resident until
	// park or retire.
	for lane := 0; lane < n; lane++ {
		s.bs.LaneX(lane, &s.plants[lane].state.X)
	}
}

// laneHardStops is enforceHardStops applied to one SoA lane: positions
// clamp at the mechanical stops with an inelastic collision.
//
//ravenlint:noalloc
func laneHardStops(bs *dynamics.BatchStepper, lane int, p *Plant) {
	for i := 0; i < kinematics.NumJoints; i++ {
		lp := bs.Component(4*i + 2)
		lv := bs.Component(4*i + 3)
		pos := lp[lane]
		vel := lv[lane]
		if pos < p.hard.Min[i] {
			lp[lane] = p.hard.Min[i]
			if vel < 0 {
				lv[lane] = 0
			}
		} else if pos > p.hard.Max[i] {
			lp[lane] = p.hard.Max[i]
			if vel > 0 {
				lv[lane] = 0
			}
		}
	}
}

// laneCheckCables is checkCables applied to one SoA lane: a joint whose
// cable tension exceeds the break limit snaps.
//
//ravenlint:noalloc
func laneCheckCables(bs *dynamics.BatchStepper, lane int, p *Plant) {
	for i := 0; i < kinematics.NumJoints; i++ {
		if p.broken[i] {
			continue
		}
		jc := &p.cable[i]
		stretch := bs.Component(4 * i)[lane]/jc.ratio - bs.Component(4*i + 2)[lane]
		stretchVel := bs.Component(4*i + 1)[lane]/jc.ratio - bs.Component(4*i + 3)[lane]
		tension := jc.k*stretch + jc.b*stretchVel
		if mathAbs(tension) > jc.breakAt {
			p.broken[i] = true
		}
	}
}
