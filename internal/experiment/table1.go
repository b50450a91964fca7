package experiment

import (
	"fmt"
	"io"

	"ravenguard/internal/inject"
	"ravenguard/internal/sim"
	"ravenguard/internal/statemachine"
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
// Each variant is one job: it simulates the attacked session up to the
// variant's activation point (where the attack is still provably inert, so
// the head is the fault-free session's own), snapshots it there and forks
// the fault-free reference tail off the snapshot the way Trial.Run does,
// then continues the attacked session, scored against the reference as it
// runs. Rows are byte-identical to running each session straight through.
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
	rows, err := runJobs(len(variants), func(i int) (Table1Row, error) {
		return runTable1Variant(baseSeed, variants[i])
	})
	if err != nil {
		return Table1Result{}, err
	}
	return Table1Result{Rows: rows}, nil
}

// runTable1Variant runs one variant's session and classifies its impact.
func runTable1Variant(baseSeed int64, v inject.Variant) (Table1Row, error) {
	// The variant's fault-free twin: its reference is Table I's.
	tr := Trial{Seed: baseSeed + int64(v), Teleop: 6}
	cfg := tr.config()
	vc := inject.VariantConfig{Variant: v, StartAt: 4.0, Seed: int64(v)}
	installed, err := vc.Apply(&cfg)
	if err != nil {
		return Table1Row{}, err
	}
	rig, err := sim.New(cfg)
	if err != nil {
		return Table1Row{}, err
	}
	dev := newHeadDeviation(tr.sessionSteps())
	brakedInDown := 0
	rig.Observe(func(si sim.StepInfo) {
		dev.observe(si)
		if si.Ctrl.State == statemachine.PedalDown && rig.PLC().BrakesEngaged() {
			brakedInDown++
		}
	})
	if _, err := rig.Run(table1PrefixSteps(v)); err != nil {
		return Table1Row{}, err
	}
	snap, err := snapshotHead(rig)
	if err != nil {
		return Table1Row{}, err
	}
	if _, err := tr.forkReference(&dev, snap); err != nil {
		return Table1Row{}, err
	}
	if _, err := rig.Run(0); err != nil {
		return Table1Row{}, err
	}
	row := Table1Row{
		Variant:     v,
		Installed:   installed,
		FinalState:  rig.Controller().State(),
		MaxDevMM:    dev.max * 1e3,
		IKFails:     rig.Controller().IKFails(),
		SafetyTrips: rig.Controller().SafetyTrips(),
		PLCEStopped: rig.PLC().EStopped(),
	}
	row.Impact = classifyImpact(row, brakedInDown)
	return row, nil
}

// mergeTable1Results concatenates the partial tables of two adjacent
// variant ranges.
func mergeTable1Results(a, b Table1Result) (Table1Result, error) {
	return Table1Result{Rows: append(append([]Table1Row{}, a.Rows...), b.Rows...)}, nil
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
