package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"ravenguard/internal/control"
	"ravenguard/internal/dynamics"
	"ravenguard/internal/experiment"
	"ravenguard/internal/fleet"
	"ravenguard/internal/inject"
	"ravenguard/internal/interpose"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/mathx"
	"ravenguard/internal/robot"
	"ravenguard/internal/usb"
)

// The traced run measures each layer from outside: it times calls into the
// layer's public functions, on sessions generated from the workload's
// seed, and never instruments the program itself. Every workload reports
// every per-layer metric; README.md says which end-to-end metric each
// should move, and on which workload.

// perLayer lists the metrics every traced run reports, in print order.
var perLayer = []metricSpec{
	{Name: "fleet.tick_us", Unit: "us"},
	{Name: "fleet.tick_us_per_session", Unit: "us"},
	{Name: "fleet.admit_us", Unit: "us"},
	{Name: "fleet.over_budget_frac", Unit: "frac"},
	{Name: "fleet.unexplained_frac", Unit: "frac"},
	{Name: "sim.step_us", Unit: "us"},
	{Name: "sim.control_us", Unit: "us"},
	{Name: "sim.finish_us", Unit: "us"},
	{Name: "sim.unexplained_frac", Unit: "frac"},
	{Name: "sim.snapshot_us", Unit: "us"},
	{Name: "sim.restore_us", Unit: "us"},
	{Name: "core.guard_us", Unit: "us"},
	{Name: "core.alarms", Unit: "count"},
	{Name: "core.mitigated", Unit: "count"},
	{Name: "robot.plant_step_us", Unit: "us"},
	{Name: "robot.laneset_step_us_per_lane", Unit: "us"},
	{Name: "dynamics.rk4_step_ns", Unit: "ns"},
	{Name: "dynamics.batch_euler_ns_per_lane", Unit: "ns"},
	{Name: "usb.codec_ns", Unit: "ns"},
	{Name: "interpose.chain_write_ns", Unit: "ns"},
	{Name: "kinematics.inverse_ns", Unit: "ns"},
	{Name: "experiment.trial_ms_p50", Unit: "ms"},
	{Name: "experiment.trial_ms_p99", Unit: "ms"},
	{Name: "experiment.reference_ms", Unit: "ms"},
	{Name: "experiment.pool_util", Unit: "frac"},
	{Name: "go.gc_cycles", Unit: "count"},
	{Name: "go.gc_pause_ms", Unit: "ms"},
	{Name: "go.alloc_bytes_per_op", Unit: "B"},
	{Name: "trace.overhead_frac", Unit: "frac"},
	{Name: "failed_frac", Unit: "frac"},
}

// forkAt is the fork point of the snapshot probe: 3.0 s, the mitigation
// sweep's fork point.
const forkAt = 3000

// --- runtime counters -------------------------------------------------

// gcCounters is a reading of the runtime's GC and allocation counters.
type gcCounters struct {
	cycles, allocBytes uint64
	pauseSec           float64
}

func readGC() gcCounters {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var c gcCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			mid := (lo + hi) / 2
			switch {
			case lo < -1e300:
				mid = hi
			case hi > 1e300:
				mid = lo
			}
			c.pauseSec += float64(n) * mid
		}
	}
	return c
}

// gcUsage accumulates runtime counters and CPU over the untraced passes.
type gcUsage struct {
	cycles, allocBytes uint64
	pauseSec           float64
	ops                int
	util               []float64
}

// measure runs pass (which returns how many operations it completed)
// between two counter readings, with busy the number of threads it keeps
// busy.
func (u *gcUsage) measure(busy int, pass func() (int, error)) error {
	g0, c0, t0 := readGC(), cpuSeconds(), time.Now()
	n, err := pass()
	wall := time.Since(t0).Seconds()
	cpu, g1 := cpuSeconds()-c0, readGC()
	u.cycles += g1.cycles - g0.cycles
	u.allocBytes += g1.allocBytes - g0.allocBytes
	u.pauseSec += g1.pauseSec - g0.pauseSec
	u.ops += n
	u.util = append(u.util, cpu/(wall*float64(busy)))
	return err
}

func (u *gcUsage) report(r *result) {
	r.setValue("go.gc_cycles", "count", float64(u.cycles))
	r.setValue("go.gc_pause_ms", "ms", 1e3*u.pauseSec)
	r.setValue("go.alloc_bytes_per_op", "B", float64(u.allocBytes)/float64(max(u.ops, 1)))
	r.set("experiment.pool_util", "frac", u.util...)
}

// --- fleet layer ----------------------------------------------------

// fleetTrace is what the traced fleet loop observed.
type fleetTrace struct {
	tickUs       []float64 // per worker tick
	admitUs      []float64 // per Spec.Build + Worker.Admit
	sessionTicks int64
	tickNs       int64
	over         int
	wall         float64
	digests      fleetDigests
}

// tracedFleet drives the specs on one fleet.Worker with the admit/tick
// loop of the fleet engine's worker goroutine, timing every admission and
// every tick from outside.
func tracedFleet(specs []fleet.Spec) (fleetTrace, error) {
	var ft fleetTrace
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return specs[order[a]].StartTick < specs[order[b]].StartTick })
	w, err := fleet.NewWorker(len(specs), nil)
	if err != nil {
		return ft, err
	}
	sessions := make([]*fleet.Session, len(specs))
	const budget = int64(control.Period * 1e9)
	start := time.Now()
	for tick, next := 0, 0; ; {
		for next < len(order) && specs[order[next]].StartTick <= tick {
			t0 := time.Now()
			s, err := specs[order[next]].Build()
			if err == nil {
				err = w.Admit(s)
			}
			ft.admitUs = append(ft.admitUs, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				return ft, err
			}
			sessions[order[next]] = s
			next++
		}
		if w.Resident() == 0 {
			if next == len(order) {
				break
			}
			tick = specs[order[next]].StartTick
			continue
		}
		n := w.Resident()
		t0 := time.Now()
		if err := w.Tick(); err != nil {
			return ft, err
		}
		d := time.Since(t0).Nanoseconds()
		ft.tickUs = append(ft.tickUs, float64(d)/1e3)
		ft.tickNs += d
		ft.sessionTicks += int64(n)
		if d >= budget {
			ft.over++
		}
		tick++
	}
	ft.wall = time.Since(start).Seconds()
	ft.digests = digestsOf(sessions)
	return ft, nil
}

// reportFleetLayer sets the fleet.* rows from traced loop passes.
func reportFleetLayer(r *result, passes []fleetTrace) {
	var tick, admit []float64
	var ns, st int64
	over := 0
	for _, ft := range passes {
		tick = append(tick, ft.tickUs...)
		admit = append(admit, ft.admitUs...)
		ns += ft.tickNs
		st += ft.sessionTicks
		over += ft.over
	}
	r.setValue("fleet.tick_us", "us", median(tick))
	r.setValue("fleet.tick_us_per_session", "us", float64(ns)/1e3/float64(max(st, 1)))
	r.set("fleet.admit_us", "us", admit...)
	r.setValue("fleet.over_budget_frac", "frac", float64(over)/float64(max(len(tick), 1)))
}

// --- campaign layer -------------------------------------------------

// tracePass runs the first traceOps ops of the campaign's walk, on a
// reset reference cache, exactly as the untraced workload runs its walk,
// and merges their partials per shard.
func tracePass(r *result, c campaign) (w window, merged [][]byte, trials int) {
	w = runWalk(c, time.Now().Add(time.Hour), c.traceOps)
	merged, trials, failed := mergeOps(c.shards, w.ops, w.parts)
	r.check(trials+failed, failed)
	return w, merged, trials
}

// reportTrialLayer sets experiment.trial_ms_* from one-job op latencies.
func reportTrialLayer(r *result, jobMs []float64) {
	r.setValue("experiment.trial_ms_p50", "ms", percentile(jobMs, 0.50), jobMs...)
	r.setValue("experiment.trial_ms_p99", "ms", percentile(jobMs, 0.99), jobMs...)
}

// referenceProbe times Trial.Run on a cold and then a warm reference
// cache; the difference is the cost of building the fault-free reference.
// Both runs must score the trial identically.
func referenceProbe(r *result, seed int64) {
	var refMs []float64
	bad := 0
	for i := 0; i < 3; i++ {
		tr := experiment.Trial{
			Seed:     seed*1000 + 500 + int64(i),
			TrajIdx:  i % 2,
			Scenario: experiment.ScenarioB,
			B:        inject.ScenarioBParams{Value: 16000, StartDelayTicks: 1000, ActivationTicks: 64},
		}
		experiment.ResetReferenceCache()
		t0 := time.Now()
		cold, err1 := tr.Run()
		t1 := time.Now()
		warm, err2 := tr.Run()
		t2 := time.Now()
		if err1 != nil || err2 != nil || cold != warm {
			bad++
			continue
		}
		refMs = append(refMs, float64(t1.Sub(t0).Nanoseconds()-t2.Sub(t1).Nanoseconds())/1e6)
	}
	experiment.ResetReferenceCache()
	r.check(3, bad)
	if len(refMs) == 0 {
		refMs = []float64{0}
	}
	r.set("experiment.reference_ms", "ms", refMs...)
}

// --- session layers (sim, core, robot) ------------------------------

// stepTimes accumulates per-step wall time of standalone sessions, ns.
type stepTimes struct {
	step, control, plant, finish int64
	steps, splitSteps            int64
	alarms, mitigated            int
}

// stepOne builds the spec and runs it alone with Rig.Step, timing each
// step, and returns the session's digest and tick count.
func (st *stepTimes) stepOne(sp fleet.Spec) (fleetDigests, error) {
	s, err := sp.Build()
	if err != nil {
		return nil, err
	}
	rig := s.Rig()
	for !rig.Done() {
		t0 := time.Now()
		si, err := rig.Step()
		st.step += time.Since(t0).Nanoseconds()
		st.steps++
		if err != nil {
			return nil, err
		}
		s.Note(si)
	}
	return digestsOf([]*fleet.Session{s}), nil
}

// splitOne builds the spec and runs it alone as Rig.StepControl,
// Plant.Step, Rig.FinishStep — the three parts Rig.Step is made of —
// timing each, and returns the session's digest and tick count.
func (st *stepTimes) splitOne(sp fleet.Spec) (fleetDigests, error) {
	s, err := sp.Build()
	if err != nil {
		return nil, err
	}
	rig := s.Rig()
	plant := rig.Plant()
	for !rig.Done() {
		t0 := time.Now()
		if err := rig.StepControl(); err != nil {
			return nil, err
		}
		t1 := time.Now()
		plant.Step(rig.Board().DACs(), control.Period)
		t2 := time.Now()
		si := rig.FinishStep()
		t3 := time.Now()
		st.control += t1.Sub(t0).Nanoseconds()
		st.plant += t2.Sub(t1).Nanoseconds()
		st.finish += t3.Sub(t2).Nanoseconds()
		st.splitSteps++
		s.Note(si)
	}
	if g := s.Guard(); g != nil {
		st.alarms += g.Alarms()
		st.mitigated += g.Mitigated()
	}
	return digestsOf([]*fleet.Session{s}), nil
}

// perStepUs converts a summed time to µs per step.
func perStepUs(ns, steps int64) float64 { return float64(ns) / 1e3 / float64(max(steps, 1)) }

// laneSetProbe packs the specs' plants into one robot.LaneSet at their
// full width and drives them lockstep — every control half, reconcile,
// one LaneSet.Step, every bookkeeping half — until the first session
// ends, timing LaneSet.Step.
func laneSetProbe(r *result, specs []fleet.Spec) error {
	n := len(specs)
	set, err := robot.NewLaneSet(n)
	if err != nil {
		return err
	}
	byLane := make([]*fleet.Session, n)
	for _, sp := range specs {
		s, err := sp.Build()
		if err != nil {
			return err
		}
		lane, err := set.Admit(s.Rig().Plant())
		if err != nil {
			return err
		}
		byLane[lane] = s
	}
	set.OnSwap = func(a, b int) { byLane[a], byLane[b] = byLane[b], byLane[a] }
	dacs := make([][usb.NumChannels]int16, n)
	var ns, ticks int64
	for {
		for _, s := range byLane {
			if s.Rig().Done() {
				r.setValue("robot.laneset_step_us_per_lane", "us", float64(ns)/1e3/float64(max(ticks, 1)*int64(n)))
				return nil
			}
		}
		for _, s := range byLane {
			if err := s.Rig().StepControl(); err != nil {
				return err
			}
		}
		set.Reconcile()
		for lane, s := range byLane {
			dacs[lane] = s.Rig().Board().DACs()
		}
		t0 := time.Now()
		set.Step(dacs, control.Period)
		ns += time.Since(t0).Nanoseconds()
		ticks++
		for _, s := range byLane {
			s.Note(s.Rig().FinishStep())
		}
	}
}

// snapshotProbe runs up to eight specs to the fork point, timing
// Rig.Snapshot, restores each snapshot into a freshly built session,
// timing Rig.Restore, and checks that the fork then ends exactly where
// the original does. It returns the plant state at the first fork point.
//
// Scenario-A sessions are left out: fleet.Spec does not register the
// scenario-A input hook as snapshot state (the campaigns' own rigs do), so
// a fleet-built scenario-A session whose attack is still pending at the
// fork point does not fork faithfully.
func snapshotProbe(r *result, all []fleet.Spec) ([dynamics.StateDim]float64, error) {
	var x0 [dynamics.StateDim]float64
	var snapUs, restUs []float64
	var specs []fleet.Spec
	for _, sp := range all {
		if sp.Attack != "A" {
			specs = append(specs, sp)
		}
	}
	n := min(len(specs), 8)
	bad := 0
	for i := 0; i < n; i++ {
		orig, err := specs[i].Build()
		if err != nil {
			return x0, err
		}
		if _, err := orig.Rig().Run(forkAt); err != nil {
			return x0, err
		}
		if i == 0 {
			x0 = orig.Rig().Plant().CaptureState().X
		}
		t0 := time.Now()
		snap, err := orig.Rig().Snapshot()
		snapUs = append(snapUs, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return x0, err
		}
		fork, err := specs[i].Build()
		if err != nil {
			return x0, err
		}
		t0 = time.Now()
		err = fork.Rig().Restore(snap)
		restUs = append(restUs, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return x0, err
		}
		a, errA := finalTip(orig)
		b, errB := finalTip(fork)
		if errA != nil || errB != nil || a != b {
			bad++
		}
	}
	r.check(n, bad)
	r.set("sim.snapshot_us", "us", snapUs...)
	r.set("sim.restore_us", "us", restUs...)
	return x0, nil
}

// finalTip steps a session to its end and returns the last true tip.
func finalTip(s *fleet.Session) (mathx.Vec3, error) {
	var tip mathx.Vec3
	for !s.Rig().Done() {
		si, err := s.Rig().Step()
		if err != nil {
			return tip, err
		}
		tip = si.TipTrue
	}
	return tip, nil
}

// --- kernels (dynamics, usb, interpose, kinematics) -----------------

// kernelRounds is how many timed batches each kernel probe runs; the
// metric is their median.
const kernelRounds = 7

// sink keeps kernel results observable so the loops are not removed.
var sink float64

func kernelProbe(r *result, x0 [dynamics.StateDim]float64, guardWidth int) error {
	st, err := dynamics.NewStepper(dynamics.DefaultParams())
	if err != nil {
		return err
	}
	const sub = control.Period / 20 // the plant's RK4 sub-step
	var rk4, euler, codec, chainNs, inv []float64
	for round := 0; round < kernelRounds; round++ {
		const k = 50000
		x := x0
		t0 := time.Now()
		for i := 0; i < k; i++ {
			if i&63 == 0 {
				x = x0
			}
			st.Step(true, &x, sub)
		}
		rk4 = append(rk4, float64(time.Since(t0).Nanoseconds())/k)
		sink += x[0]
	}

	w := max(guardWidth, 1)
	bs, err := dynamics.NewBatchStepper(w)
	if err != nil {
		return err
	}
	if err := bs.SetLanes(w); err != nil {
		return err
	}
	for round := 0; round < kernelRounds; round++ {
		const k = 2000
		t0 := time.Now()
		for i := 0; i < k; i++ {
			if i&63 == 0 {
				for lane := 0; lane < w; lane++ {
					st.FillLane(bs, lane)
					bs.SetLaneX(lane, &x0)
				}
			}
			bs.StepEulerAll(control.Period)
		}
		euler = append(euler, float64(time.Since(t0).Nanoseconds())/float64(k*w))
	}

	cmd := usb.Command{StateNibble: 3, Watchdog: true, DAC: [usb.NumChannels]int16{1200, -800, 400}}
	inj, err := inject.NewScenarioB(inject.ScenarioBParams{Value: 16000, ActivationTicks: 1 << 30})
	if err != nil {
		return err
	}
	var acc byte
	chain := interpose.NewChain(func(b []byte) error { acc ^= b[len(b)-1]; return nil }).Preload(inj)
	frame := cmd.Encode()
	buf := make([]byte, len(frame))
	tip := kinematics.Forward(kinematics.DefaultLimits().Center())
	for round := 0; round < kernelRounds; round++ {
		const k = 200000
		t0 := time.Now()
		for i := 0; i < k; i++ {
			cmd.Seq = byte(i)
			f := cmd.Encode()
			c, err := usb.DecodeCommand(f[:])
			if err != nil {
				return err
			}
			acc ^= byte(c.DAC[0])
		}
		codec = append(codec, float64(time.Since(t0).Nanoseconds())/k)

		t0 = time.Now()
		for i := 0; i < k; i++ {
			copy(buf, frame[:])
			if err := chain.Write(buf); err != nil {
				return err
			}
		}
		chainNs = append(chainNs, float64(time.Since(t0).Nanoseconds())/k)

		const ki = 20000
		t0 = time.Now()
		for i := 0; i < ki; i++ {
			p := tip
			p.X += 1e-6 * float64(i&15)
			jp, err := kinematics.Inverse(p)
			if err != nil {
				return err
			}
			sink += jp[0]
		}
		inv = append(inv, float64(time.Since(t0).Nanoseconds())/ki)
	}
	sink += float64(acc)
	r.set("dynamics.rk4_step_ns", "ns", rk4...)
	r.set("dynamics.batch_euler_ns_per_lane", "ns", euler...)
	r.set("usb.codec_ns", "ns", codec...)
	r.set("interpose.chain_write_ns", "ns", chainNs...)
	r.set("kinematics.inverse_ns", "ns", inv...)
	return nil
}

// probeLayers measures the session and kernel layers on the workload's
// probe sessions and reconciles the layer rows against the totals. Each
// session runs three times back to back — whole steps, split steps with
// its guard, split steps with the guard off — so the rows that are
// compared share the machine's state; the split run must reproduce the
// whole-step run's digest.
func probeLayers(r *result, specs []fleet.Spec) error {
	var on, off stepTimes
	guarded, bad := 0, 0
	for _, sp := range specs {
		want, err := on.stepOne(sp)
		if err != nil {
			return fmt.Errorf("step probe: %w", err)
		}
		got, err := on.splitOne(sp)
		if err != nil {
			return fmt.Errorf("split probe: %w", err)
		}
		bad += got.mismatches(want)
		if sp.Guard != "" && sp.Guard != "off" {
			guarded++
		}
		sp.Guard = "off"
		if _, err := off.splitOne(sp); err != nil {
			return fmt.Errorf("guard-off probe: %w", err)
		}
	}
	r.check(len(specs), bad)
	step := perStepUs(on.step, on.steps)
	control, plant, finish := perStepUs(on.control, on.splitSteps), perStepUs(on.plant, on.splitSteps), perStepUs(on.finish, on.splitSteps)
	r.setValue("sim.step_us", "us", step)
	r.setValue("sim.control_us", "us", control)
	r.setValue("robot.plant_step_us", "us", plant)
	r.setValue("sim.finish_us", "us", finish)
	r.setValue("core.guard_us", "us", control-perStepUs(off.control, off.splitSteps))
	r.setValue("core.alarms", "count", float64(on.alarms))
	r.setValue("core.mitigated", "count", float64(on.mitigated))

	if err := laneSetProbe(r, specs); err != nil {
		return fmt.Errorf("lane-set probe: %w", err)
	}
	x0, err := snapshotProbe(r, specs)
	if err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	if err := kernelProbe(r, x0, guarded); err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}

	// Reconciliation: the parts against the totals they make up.
	r.setValue("sim.unexplained_frac", "frac", (step-control-plant-finish)/step)
	perSession := r.metrics["fleet.tick_us_per_session"].Value
	parts := control + finish + r.metrics["robot.laneset_step_us_per_lane"].Value
	r.setValue("fleet.unexplained_frac", "frac", (perSession-parts)/perSession)
	return nil
}

// finishTrace sets the run-level rows of a traced run: the tracing
// overhead is the median over pass pairs of the traced pass's throughput
// shortfall against the untraced pass run next to it.
func finishTrace(r *result, untraced, traced []float64) {
	over := make([]float64, len(traced))
	for i := range traced {
		over[i] = 1 - traced[i]/untraced[i]
	}
	r.set("trace.overhead_frac", "frac", over...)
	r.setValue("failed_frac", "frac", float64(r.failed)/float64(max(r.attempted, 1)))
}

// --- workloads -------------------------------------------------------

// traceFleet alternates untraced fleet.Engine runs with the traced
// admit/tick loop over the same specs until half the window has passed,
// then probes the layers on the fleet's sessions.
func traceFleet(o options, r *result) error {
	specs := fleetSpecs(o.seed, fleetSessions)
	if _, _, err := runEngine(fleetSpecs(o.seed+1<<20, fleetWarmSessions)); err != nil {
		return err
	}
	var usage gcUsage
	var untraced, traced []float64
	var passes []fleetTrace
	end := o.traceDeadline(time.Now())
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		var rep fleet.Report
		var dig fleetDigests
		var ft fleetTrace
		untracedPass := func() error {
			return usage.measure(1, func() (n int, err error) {
				rep, dig, err = runEngine(specs)
				return len(specs), err
			})
		}
		tracedPass := func() (err error) {
			ft, err = tracedFleet(specs)
			return err
		}
		// Alternate which pass goes first so drift in machine speed does
		// not bias the overhead estimate.
		first, second := untracedPass, tracedPass
		if i%2 == 1 {
			first, second = tracedPass, untracedPass
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
		r.check(len(specs), ft.digests.mismatches(dig))
		untraced = append(untraced, rep.TicksPerSecond)
		traced = append(traced, float64(ft.sessionTicks)/ft.wall)
		passes = append(passes, ft)
	}
	reportFleetLayer(r, passes)
	usage.report(r)

	// The experiment rows come from the Table IV walk's first four jobs.
	c := buildTrials(o.seed)
	c.traceOps = 4
	w, _, _ := tracePass(r, c)
	reportTrialLayer(r, w.ms)
	referenceProbe(r, o.seed)
	if err := probeLayers(r, specs); err != nil {
		return err
	}
	finishTrace(r, untraced, traced)
	return nil
}

// probeSpecs builds n standalone sessions resembling a campaign's: the
// given attacks and guards cycled, five seconds of teleoperation.
func probeSpecs(seed int64, n int, attacks, guards []string, value int16, duration int) []fleet.Spec {
	specs := make([]fleet.Spec, n)
	for i := range specs {
		specs[i] = fleet.Spec{
			Seed:            seed*1000 + 700 + int64(i),
			TeleopSeconds:   5,
			TrajIdx:         i % 2,
			Attack:          attacks[i%len(attacks)],
			AttackValue:     value,
			AttackMagnitude: 2e-4,
			AttackDuration:  duration,
			AttackDelay:     500 + 50*i,
			Guard:           guards[i%len(guards)],
			StartTick:       fleetStagger * i,
		}
	}
	return specs
}

// traceCampaign alternates an untraced and a traced pass over the walk's
// first traceOps ops until half the window has passed; the traced pass is
// the same walk with the runtime counters and process CPU read around it.
// Every pass's output must equal the first's. It then probes the layers
// on sessions resembling the campaign's.
func traceCampaign(o options, r *result, c campaign, specs []fleet.Spec) error {
	experiment.SetWorkers(poolSize())
	runWalk(c, time.Now().Add(time.Hour), c.warmOps)
	var usage gcUsage
	var untraced, traced, jobMs []float64
	var first [][]byte
	end := o.traceDeadline(time.Now())
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		// Alternate which pass goes first so drift in machine speed does
		// not bias the overhead estimate.
		for _, isTraced := range []bool{i%2 == 1, i%2 == 0} {
			var w window
			var merged [][]byte
			var trials int
			if isTraced {
				if err := usage.measure(poolSize(), func() (int, error) {
					w, merged, trials = tracePass(r, c)
					return trials, nil
				}); err != nil {
					return err
				}
				traced = append(traced, float64(trials)/w.wall)
				jobMs = append(jobMs, w.ms...)
			} else {
				w, merged, trials = tracePass(r, c)
				untraced = append(untraced, float64(trials)/w.wall)
			}
			if first == nil {
				first = merged
			}
			for si := range merged {
				if !bytes.Equal(merged[si], first[si]) {
					r.check(0, trials)
					r.note("a pass's output differs from the first pass's")
				}
			}
		}
	}
	usage.report(r)
	reportTrialLayer(r, jobMs)
	referenceProbe(r, o.seed)

	ft, err := tracedFleet(specs)
	if err != nil {
		return err
	}
	reportFleetLayer(r, []fleetTrace{ft})
	if err := probeLayers(r, specs); err != nil {
		return err
	}
	finishTrace(r, untraced, traced)
	return nil
}

func traceTrials(o options, r *result) error {
	specs := probeSpecs(o.seed, 16, []string{"none", "A", "B"}, []string{"monitor"}, 16000, 64)
	return traceCampaign(o, r, buildTrials(o.seed), specs)
}
