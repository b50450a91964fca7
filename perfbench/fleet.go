package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"ravenguard/internal/fleet"
)

// The fleet workload is the guard service's provisioning point: 64 mixed
// sessions on one fleet.Worker, admitted two ticks apart, with the
// none:off, B:mitigate, A:holdsafe mix and attack settings of
// `tools/bench.sh -f 64` (the recorded BENCH_*.json fleet rows) and
// BenchmarkWorkerTick.
const (
	fleetSessions = 64
	fleetTeleop   = 1.0
	fleetStagger  = 2
	// fleetWarmSessions sizes the warm-up fleet each set-up runs.
	fleetWarmSessions = 16
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 7
)

// fleetSpecs generates the workload's sessions from the seed.
func fleetSpecs(seed int64, n int) []fleet.Spec {
	mix := []struct{ attack, guard string }{{"none", "off"}, {"B", "mitigate"}, {"A", "holdsafe"}}
	specs := make([]fleet.Spec, n)
	for i := range specs {
		m := mix[i%len(mix)]
		specs[i] = fleet.Spec{
			Seed:            seed*1000 + int64(i),
			TeleopSeconds:   fleetTeleop,
			Attack:          m.attack,
			AttackValue:     20000,
			AttackMagnitude: 2e-4,
			AttackDuration:  64,
			AttackDelay:     150,
			Guard:           m.guard,
			StartTick:       fleetStagger * i,
		}
	}
	return specs
}

// fleetDigests is one fleet run's per-session outcome: digest and ticks.
type fleetDigests []uint64

func digestsOf(sessions []*fleet.Session) fleetDigests {
	d := make(fleetDigests, 0, 2*len(sessions))
	for _, s := range sessions {
		if s == nil {
			d = append(d, 0, 0)
			continue
		}
		d = append(d, s.Sum(), uint64(s.Ticks()))
	}
	return d
}

// mismatches counts sessions whose digest or tick count differs from want.
func (d fleetDigests) mismatches(want fleetDigests) int {
	bad := 0
	for i := 0; i+1 < len(want); i += 2 {
		if i+1 >= len(d) || d[i] != want[i] || d[i+1] != want[i+1] {
			bad++
		}
	}
	return bad
}

func (d fleetDigests) bytes() []byte {
	out := make([]byte, 0, 8*len(d))
	for _, v := range d {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out
}

// runEngine runs the specs on one fleet worker and returns the SLO report
// with the sessions' digests.
func runEngine(specs []fleet.Spec) (fleet.Report, fleetDigests, error) {
	eng, err := fleet.New(fleet.Config{Specs: specs, Workers: 1})
	if err != nil {
		return fleet.Report{}, nil, err
	}
	rep, err := eng.Run()
	if err != nil {
		return fleet.Report{}, nil, err
	}
	return rep, digestsOf(eng.Sessions()), nil
}

// standaloneDigests runs every spec alone with Rig.Step — the reference a
// packed fleet must reproduce bit for bit.
func standaloneDigests(specs []fleet.Spec) (fleetDigests, error) {
	sessions := make([]*fleet.Session, len(specs))
	for i, sp := range specs {
		s, err := fleet.RunStandalone(sp)
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	return digestsOf(sessions), nil
}

// setupFleet generates the inputs and warms the engine on a small fleet.
func setupFleet(seed int64) ([]fleet.Spec, error) {
	specs := fleetSpecs(seed, fleetSessions)
	_, _, err := runEngine(fleetSpecs(seed+1<<20, fleetWarmSessions))
	return specs, err
}

// runFleet is the untraced fleet workload: whole 64-session fleet runs
// (passes) back to back until the window closes. Each pass's engine
// report yields its sessions/core, sessions/s and worker-tick p50 and p99
// (from its ~3.6k ticks, so ≥36 lie beyond p99).
//
// The rows summarize the passes in two ways, because the reference box's
// neighbours move them in two ways. A busy neighbour on the worker's
// physical core roughly doubles the cost of the light ticks that make up
// the middle of the distribution, in stretches from under a second to
// over a minute, so a pass's p50 sits on one of two levels and a median
// over passes flips between them with the share of busy time; tick p50
// is therefore the 10th percentile over passes, the quiet level, which
// nearly every 55 s run reaches. Throughput and p99 are set by the heavy
// ticks, whose cost drifts with the host's load from pass to pass rather
// than flipping between two levels; for them the median over passes is
// the steadier figure. Both are fixed
// quantiles, so their expected values do not depend on how many passes
// fit in the window.
//
// Set-up runs setupRepeats times: once before the window and then at
// even intervals inside it, between passes and outside their timing, so
// the set-ups sample the host over the whole run rather than its first
// seconds; setup_s is their median.
func runFleet(o options, r *result) error {
	var setups []float64
	setUp := func() ([]fleet.Spec, error) {
		t0 := time.Now()
		specs, err := setupFleet(o.seed)
		setups = append(setups, time.Since(t0).Seconds())
		return specs, err
	}
	specs, err := setUp()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	var spc, tps, p50, p99 []float64
	var runs []fleetDigests
	start := time.Now()
	window := o.deadline(start).Sub(start)
	for len(runs) == 0 || time.Since(start) < window {
		if len(setups) < setupRepeats && time.Since(start) >= window*time.Duration(len(setups))/setupRepeats {
			t0 := time.Now()
			if _, err := setUp(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			window += time.Since(t0)
		}
		rep, dig, err := runEngine(specs)
		if err != nil {
			r.check(len(specs), len(specs))
			r.note("fleet run %d: %v", len(runs), err)
			runs = append(runs, nil)
			continue
		}
		runs = append(runs, dig)
		spc = append(spc, rep.SessionsPerCore)
		tps = append(tps, float64(rep.Sessions)/rep.WallSeconds)
		p50 = append(p50, rep.TickP50Ms)
		p99 = append(p99, rep.TickP99Ms)
	}
	if len(spc) == 0 {
		return fmt.Errorf("no fleet run completed")
	}
	r.set("setup_s", "s", setups...)

	want, err := standaloneDigests(specs)
	if err != nil {
		return fmt.Errorf("standalone reference: %w", err)
	}
	for _, d := range runs {
		if d != nil {
			r.check(len(specs), d.mismatches(want))
		}
	}
	r.output = want.bytes()
	r.set("sessions_per_core", "count", spc...)
	r.setValue("tick_p50_ms", "ms", percentile(p50, 0.10), p50...)
	r.set("tick_p99_ms", "ms", p99...)
	r.set("trials_per_s", "1/s", tps...)
	r.note("%d fleet runs of %d sessions; digests checked against fleet.RunStandalone", len(runs), len(specs))
	return nil
}
