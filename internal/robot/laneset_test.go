package robot

import (
	"testing"

	"ravenguard/internal/dynamics"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/motor"
	"ravenguard/internal/usb"
)

// tenant is one scalar/resident plant pair driven through an identical
// DAC + brake program, with a lifecycle window [start, end) in ticks.
type tenant struct {
	scalar *Plant
	packed *Plant
	lane   int // current lane while resident, -1 otherwise
	start  int
	end    int
}

// tenantConfig builds the shared plant config for pair i.
func tenantConfig(i int) Config {
	return Config{
		Params: dynamics.DefaultParams(),
		Bank:   motor.DefaultBank(),
		Seed:   100 + int64(i),
	}
}

// dacProgram is a deterministic per-tenant torque program that sweeps the
// joints without needing a controller.
func dacProgram(i, tick int) [usb.NumChannels]int16 {
	var d [usb.NumChannels]int16
	d[0] = int16((tick*7+i*13)%4001 - 2000)
	d[1] = int16((tick*11+i*5)%3001 - 1500)
	d[2] = int16((tick*3+i*17)%2001 - 1000)
	d[3] = int16((tick + i) % 500)
	return d
}

// braked is the shared brake schedule: braked for the first 3 ticks of a
// tenant's life, a mid-life braked window, free otherwise.
func braked(i, localTick int) bool {
	if localTick < 3 {
		return true
	}
	mid := 40 + 5*i
	return localTick >= mid && localTick < mid+7
}

// TestLaneSetBitIdenticalToScalar pins the residency guarantee: plants
// living in LaneSet lanes — through admission, brake park/unpark cycles,
// lane swaps forced by neighbours' transitions, and retirement with
// compaction — produce bit-identical trajectories to scalar twins stepped
// alone, and a retired plant's full captured state (integrator anchors and
// rng position included) equals its twin's, so scalar stepping resumes
// identically.
func TestLaneSetBitIdenticalToScalar(t *testing.T) {
	const (
		nTenants = 7
		ticks    = 120
		dt       = 1e-3
	)
	set, err := NewLaneSet(nTenants)
	if err != nil {
		t.Fatal(err)
	}
	byLane := make([]*tenant, nTenants)
	set.OnSwap = func(a, b int) {
		byLane[a], byLane[b] = byLane[b], byLane[a]
		if byLane[a] != nil {
			byLane[a].lane = a
		}
		if byLane[b] != nil {
			byLane[b].lane = b
		}
	}

	tenants := make([]*tenant, nTenants)
	for i := range tenants {
		sp, err := NewPlant(tenantConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		pp, err := NewPlant(tenantConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		// Staggered lifecycles: admissions at 0/4/8/..., retirements well
		// before the horizon so post-retirement scalar resume is exercised.
		tenants[i] = &tenant{scalar: sp, packed: pp, lane: -1, start: 4 * i, end: 70 + 6*i}
	}

	dacs := make([][usb.NumChannels]int16, nTenants)
	for tick := 0; tick < ticks; tick++ {
		// Admissions due this tick.
		for i, tn := range tenants {
			if tn.start == tick {
				lane, err := set.Admit(tn.packed)
				if err != nil {
					t.Fatalf("admit tenant %d: %v", i, err)
				}
				tn.lane = lane
				byLane[lane] = tn
			}
		}
		// Control phase: brakes and DACs for every live tenant, twin and
		// resident alike.
		for i, tn := range tenants {
			if tick < tn.start {
				continue
			}
			local := tick - tn.start
			br := braked(i, local)
			d := dacProgram(i, local)
			tn.scalar.SetBrakes(br)
			tn.scalar.Step(d, dt)
			if tn.lane >= 0 {
				tn.packed.SetBrakes(br)
			} else {
				tn.packed.Step(d, dt) // retired: scalar resume
			}
		}
		// Reconcile first: brake transitions re-home lanes, and dacs are
		// addressed by post-reconcile lane.
		set.Reconcile()
		for lane := 0; lane < set.Resident(); lane++ {
			local := tick - byLane[lane].start
			idx := tenantIndex(tenants, byLane[lane])
			dacs[lane] = dacProgram(idx, local)
		}
		set.Step(dacs, dt)

		// Retirements due after this tick.
		for _, tn := range tenants {
			if tn.lane >= 0 && tick+1 >= tn.end {
				retireTenant(t, set, byLane, tn)
			}
		}

		// Per-tick observable state must match exactly for every live pair.
		for i, tn := range tenants {
			if tick < tn.start {
				continue
			}
			if tn.scalar.JointPos() != tn.packed.JointPos() ||
				tn.scalar.MotorPos() != tn.packed.MotorPos() ||
				tn.scalar.JointVel() != tn.packed.JointVel() ||
				tn.scalar.MotorVel() != tn.packed.MotorVel() {
				t.Fatalf("tenant %d diverged at tick %d (lane %d):\nscalar %v\npacked %v",
					i, tick, tn.lane, tn.scalar.JointPos(), tn.packed.JointPos())
			}
			if tn.scalar.EncoderCounts() != tn.packed.EncoderCounts() {
				t.Fatalf("tenant %d encoder counts diverged at tick %d", i, tick)
			}
			if tn.lane < 0 {
				// Retired (or never admitted yet): the complete state —
				// anchors and rng position included — must be equal, so
				// scalar stepping continues bit-identically.
				if tn.scalar.CaptureState() != tn.packed.CaptureState() {
					t.Fatalf("tenant %d full state diverged after retirement at tick %d:\nscalar %+v\npacked %+v",
						i, tick, tn.scalar.CaptureState(), tn.packed.CaptureState())
				}
			}
		}
	}
	if set.Resident() != 0 {
		t.Fatalf("all tenants retired but %d lanes still resident", set.Resident())
	}
}

func tenantIndex(tenants []*tenant, tn *tenant) int {
	for i, c := range tenants {
		if c == tn {
			return i
		}
	}
	return -1
}

func retireTenant(t *testing.T, set *LaneSet, byLane []*tenant, tn *tenant) {
	t.Helper()
	lane := tn.lane
	p, err := set.Retire(lane)
	if err != nil {
		t.Fatal(err)
	}
	if p != tn.packed {
		t.Fatalf("retire of lane %d returned the wrong plant", lane)
	}
	// The retired tenant was swapped to the last resident slot before the
	// shrink; clear it from the mirror.
	byLane[set.Resident()] = nil
	tn.lane = -1
}

// TestLaneSetMatchesScalarAcrossPlantEdges drives resident plants and
// scalar twins through the plant's edge cases — hard-stop slams, a cable
// snap at a low break tension, staggered brake release and a mid-run
// re-brake (park, then unpark) — and requires every plant to be
// bit-identical at every tick, and in full after retirement.
func TestLaneSetMatchesScalarAcrossPlantEdges(t *testing.T) {
	const n, steps = 5, 1200
	// Low shoulder break tension so at least one lane snaps a cable.
	breakT := [kinematics.NumJoints]float64{2.0, 6, 60}
	packed := buildPlants(t, n, breakT)
	scalar := buildPlants(t, n, breakT)

	set, err := NewLaneSet(n)
	if err != nil {
		t.Fatal(err)
	}
	byLane := make([]int, n) // plant index resident in each lane
	set.OnSwap = func(a, b int) { byLane[a], byLane[b] = byLane[b], byLane[a] }
	for i, p := range packed {
		lane, err := set.Admit(p)
		if err != nil {
			t.Fatal(err)
		}
		byLane[lane] = i
	}
	dacs := make([][usb.NumChannels]int16, n)
	for step := 0; step < steps; step++ {
		for i := range packed {
			braked := step < 10*i || (i == 2 && step >= 600 && step < 700)
			packed[i].SetBrakes(braked)
			scalar[i].SetBrakes(braked)
			scalar[i].Step(driveDACs(i, step), 1e-3)
		}
		set.Reconcile()
		for lane := range dacs {
			dacs[lane] = driveDACs(byLane[lane], step)
		}
		set.Step(dacs, 1e-3)
		for i := range scalar {
			assertTrajectoryEqual(t, packed[i], scalar[i], "step")
		}
	}
	for set.Resident() > 0 {
		if _, err := set.Retire(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := range scalar {
		assertPlantsEqual(t, packed[i], scalar[i], "retired")
	}
	snapped := false
	for _, p := range scalar {
		if b, _ := p.CableBroken(); b {
			snapped = true
		}
	}
	if !snapped {
		t.Fatal("test did not exercise a cable snap; raise the drive or lower BreakTension")
	}
}

// TestLaneSetAdmitErrors pins capacity and sub-step homogeneity checks.
func TestLaneSetAdmitErrors(t *testing.T) {
	set, err := NewLaneSet(1)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlant(tenantConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Admit(p1); err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlant(tenantConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Admit(p2); err == nil {
		t.Fatal("admit past capacity succeeded")
	}

	set2, err := NewLaneSet(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set2.Admit(p1); err != nil {
		t.Fatal(err)
	}
	oddCfg := tenantConfig(3)
	oddCfg.Substeps = 10
	odd, err := NewPlant(oddCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set2.Admit(odd); err == nil {
		t.Fatal("admit with mismatched sub-step count succeeded")
	}
}

// TestLaneSetStepAllocs pins the steady-state tick at zero allocations.
func TestLaneSetStepAllocs(t *testing.T) {
	const n = 6
	set, err := NewLaneSet(n)
	if err != nil {
		t.Fatal(err)
	}
	dacs := make([][usb.NumChannels]int16, n)
	for i := 0; i < n; i++ {
		p, err := NewPlant(tenantConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		p.SetBrakes(i%3 == 0) // mixed active/parked steady state
		if _, err := set.Admit(p); err != nil {
			t.Fatal(err)
		}
		dacs[i] = dacProgram(i, 1)
	}
	set.Reconcile()
	set.Step(dacs, 1e-3) // settle the partition
	if avg := testing.AllocsPerRun(200, func() {
		set.Reconcile()
		set.Step(dacs, 1e-3)
	}); avg != 0 {
		t.Fatalf("LaneSet tick allocates %.1f times per tick, want 0", avg)
	}
}
