package experiment

import (
	"fmt"
	"io"

	"ravenguard/internal/console"
	"ravenguard/internal/inject"
	"ravenguard/internal/mathx"
	"ravenguard/internal/sim"
	"ravenguard/internal/statemachine"
	"ravenguard/internal/trajectory"
)

// Table1Row is one attack variant and its observed impact, reproduced live.
type Table1Row struct {
	Variant     inject.Variant
	Installed   string // what the engine installed
	Impact      string // classified observed impact
	FinalState  statemachine.State
	MaxDevMM    float64
	IKFails     int
	SafetyTrips int
	PLCEStopped bool
}

// Table1Result is the variant matrix.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Jobs is the size of Table I's shardable job space: one job per
// attack variant.
func Table1Jobs() int { return len(inject.AllVariants()) }

// RunTable1 executes every Table I variant against a standard session and
// classifies the observed impact the way the paper's Table I reports them.
//
// Each variant is one group on the two-level plan: the prefix job
// simulates the attacked session once up to the variant's activation point
// (where the attack is still provably inert, so the head is shared physics)
// and snapshots it; the fan jobs fork the snapshot into the fault-free
// reference continuation and the attacked continuation. Rows are
// byte-identical to running each session straight through.
func RunTable1(baseSeed int64) (Table1Result, error) {
	return RunTable1Range(baseSeed, 0, Table1Jobs())
}

// RunTable1Range runs the variant indices [lo, hi) — Table I's shardable
// job space. Each variant's row is independent, so the partial tables of
// adjacent ranges merge by concatenation, byte-identical to the
// single-range run.
func RunTable1Range(baseSeed int64, lo, hi int) (Table1Result, error) {
	all := inject.AllVariants()
	if lo < 0 || hi > len(all) || lo > hi {
		return Table1Result{}, fmt.Errorf("experiment: table1 range %d:%d outside [0,%d)", lo, hi, len(all))
	}
	variants := all[lo:hi]
	if len(variants) == 0 {
		return Table1Result{}, nil
	}
	type prefixOut struct {
		rig       *sim.Rig // the attacked rig, paused at the fork point
		snap      sim.Snapshot
		steps     *[]table1Step
		installed string
		seed      int64
	}
	type fanOut struct {
		refTail []mathx.Vec3
		row     Table1Row
		steps   *[]table1Step
	}
	groups, err := runGroups(len(variants),
		func(g int) (prefixOut, error) {
			v := variants[g]
			cfg := sim.Config{
				Seed:   baseSeed + int64(v),
				Script: console.StandardScript(6),
				Traj:   trajectory.Standard()[0],
			}
			vc := inject.VariantConfig{Variant: v, StartAt: 4.0, Seed: int64(v)}
			installed, err := vc.Apply(&cfg)
			if err != nil {
				return prefixOut{}, err
			}
			rig, err := sim.New(cfg)
			if err != nil {
				return prefixOut{}, err
			}
			buf := make([]table1Step, 0, table1SessionCap)
			steps := &buf
			observeTable1(rig, steps)
			if _, err := rig.Run(table1PrefixSteps(v)); err != nil {
				return prefixOut{}, err
			}
			snap, err := rig.Snapshot()
			if err != nil {
				return prefixOut{}, err
			}
			return prefixOut{rig: rig, snap: snap, steps: steps, installed: installed, seed: cfg.Seed}, nil
		},
		func(int) int { return 2 },
		func(g, j int, p prefixOut) (fanOut, error) {
			if j == 0 {
				// Fork the fault-free reference off the dormant prefix: the
				// snapshot's extra attack-component states are ignored.
				refRig, err := sim.New(sim.Config{
					Seed:   p.seed,
					Script: console.StandardScript(6),
					Traj:   trajectory.Standard()[0],
				})
				if err != nil {
					return fanOut{}, err
				}
				if err := refRig.Restore(p.snap); err != nil {
					return fanOut{}, err
				}
				tail := make([]mathx.Vec3, 0, table1SessionCap)
				refRig.Observe(func(si sim.StepInfo) { tail = append(tail, si.TipTrue) })
				if _, err := refRig.Run(0); err != nil {
					return fanOut{}, err
				}
				return fanOut{refTail: tail}, nil
			}
			// Continue the attacked session to the end of the script.
			if _, err := p.rig.Run(0); err != nil {
				return fanOut{}, err
			}
			return fanOut{
				steps: p.steps,
				row: Table1Row{
					Variant:     variants[g],
					Installed:   p.installed,
					FinalState:  p.rig.Controller().State(),
					IKFails:     p.rig.Controller().IKFails(),
					SafetyTrips: p.rig.Controller().SafetyTrips(),
					PLCEStopped: p.rig.PLC().EStopped(),
				},
			}, nil
		})
	if err != nil {
		return Table1Result{}, err
	}

	rows := make([]Table1Row, len(variants))
	for g, fans := range groups {
		v := variants[g]
		row := fans[1].row
		steps := *fans[1].steps
		pre := table1PrefixSteps(v)
		// The attacked prefix IS the reference prefix (the attack was
		// inert), so the full reference is prefix tips + forked tail.
		ref := make([]mathx.Vec3, 0, pre+len(fans[0].refTail))
		for _, s := range steps[:pre] {
			ref = append(ref, s.tip)
		}
		ref = append(ref, fans[0].refTail...)
		storeReference(refKey{seed: baseSeed + int64(v), trajIdx: 0, teleop: 6}, ref)

		halted := false
		brakedInDown := 0
		for i, s := range steps {
			if !halted && i < len(ref) {
				if d := s.tip.DistanceTo(ref[i]); d > row.MaxDevMM/1e3 {
					row.MaxDevMM = d * 1e3
				}
			}
			if s.plcEStop {
				halted = true
			}
			if s.downAndBraked {
				brakedInDown++
			}
		}
		row.Impact = classifyImpact(row, brakedInDown)
		rows[g] = row
	}
	return Table1Result{Rows: rows}, nil
}

// mergeTable1Results concatenates the partial tables of two adjacent
// variant ranges.
func mergeTable1Results(a, b Table1Result) (Table1Result, error) {
	return Table1Result{Rows: append(append([]Table1Row{}, a.Rows...), b.Rows...)}, nil
}

// table1SessionCap bounds the step count of one 6 s Table I session
// (~975 steps/s), so the step and reference-tail recorders allocate once
// instead of regrowing through the run.
const table1SessionCap = 6200

// table1Step is one observed step of an attacked session, recorded so the
// row can be classified once the reference trace is assembled.
type table1Step struct {
	tip           mathx.Vec3
	plcEStop      bool
	downAndBraked bool
}

// observeTable1 records the per-step observables row classification needs.
func observeTable1(rig *sim.Rig, steps *[]table1Step) {
	rig.Observe(func(si sim.StepInfo) {
		*steps = append(*steps, table1Step{
			tip:           si.TipTrue,
			plcEStop:      si.PLCEStop,
			downAndBraked: si.Ctrl.State == statemachine.PedalDown && rig.PLC().BrakesEngaged(),
		})
	})
}

// table1PrefixSteps is how many steps of a variant's session are provably
// attack-free: every variant is inert before its trigger, so the session
// head can be simulated once and forked into both continuations.
func table1PrefixSteps(v inject.Variant) int {
	switch v {
	case inject.VariantMotorCommand, inject.VariantWatchdogSpoof:
		// These trigger on the first Pedal Down frame (t ≈ 2.55 s).
		return 2450
	default:
		// The rest arm at StartAt = 4.0 s.
		return 3900
	}
}

// classifyImpact maps run observables to the paper's impact labels. The
// order matters: root causes (IK failure, brake desync, lost console) are
// reported ahead of their downstream symptoms (deviation from the
// reference trajectory, cascaded E-STOP).
func classifyImpact(row Table1Row, brakedInDown int) string {
	switch {
	case row.IKFails > 0:
		return "Unwanted state (IK-fail)"
	case brakedInDown > 0:
		return "Brake engagement mid-operation (PLC desync)"
	case row.Variant == inject.VariantPortChange && row.FinalState == statemachine.PedalUp:
		return "Unwanted state (console lost, frozen arm)"
	case row.Variant == inject.VariantPacketContent && row.MaxDevMM > AdverseJumpThreshold*1e3:
		return "Hijacked trajectory"
	case row.PLCEStopped || row.FinalState == statemachine.EStop:
		if row.MaxDevMM > AdverseJumpThreshold*1e3 {
			return "Abrupt jump + Unwanted state (E-STOP)"
		}
		return "Unwanted state (E-STOP)"
	case row.MaxDevMM > AdverseJumpThreshold*1e3:
		return "Abrupt jump"
	default:
		return "No observable impact"
	}
}

// Write renders the variant matrix.
func (r Table1Result) Write(w io.Writer) {
	fmt.Fprintln(w, "TABLE I. Attack variants on the robot control structure and observed impact")
	fmt.Fprintf(w, "%-44s %-42s %10s %8s %6s %6s\n", "Variant (target layer)", "Observed impact", "MaxDev(mm)", "IKfails", "Trips", "E-STOP")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-44s %-42s %10.2f %8d %6d %6v\n",
			row.Variant, row.Impact, row.MaxDevMM, row.IKFails, row.SafetyTrips, row.PLCEStopped)
	}
}
