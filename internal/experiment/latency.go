package experiment

import (
	"fmt"
	"io"

	"ravenguard/internal/inject"
	"ravenguard/internal/stats"
)

// LatencyConfig sizes the detection-latency experiment (extension): how
// many control cycles pass between the first corrupted frame reaching the
// write path and the guard's first alarm. The paper claims preemptive
// detection "before they manifest in the physical system"; this quantifies
// the margin.
type LatencyConfig struct {
	// Values are the scenario-B DAC error values to profile.
	Values []int16
	// RunsPerValue (default 20).
	RunsPerValue int
	BaseSeed     int64
}

func (c *LatencyConfig) applyDefaults() {
	if len(c.Values) == 0 {
		c.Values = []int16{8000, 12000, 16000, 20000, 24000, 28000}
	}
	if c.RunsPerValue == 0 {
		c.RunsPerValue = 20
	}
}

// LatencyRow is one value's latency distribution.
type LatencyRow struct {
	Value    int16
	Detected int // runs where the guard alarmed at all
	Runs     int
	// Latency in control cycles (= ms), over detected runs.
	Latency stats.Summary
	// ImpactMargin is mean (impact tick - alarm tick) over runs where the
	// unprotected system would have crossed the 1 mm criterion: how much
	// earlier the guard fires than the injury would occur. Negative means
	// the alarm came too late.
	ImpactMargin stats.Summary
}

// LatencyResult is the full profile.
type LatencyResult struct {
	Rows []LatencyRow
}

// latencyTicks is one run's three tick marks.
type latencyTicks struct {
	start, alarm, impact int
}

// RunLatency profiles detection latency for scenario-B attacks. Each run
// is a trial scoring the paper's guard (Trial.run), whose scored rig also
// reports its first corrupted frame. All (value, rep) runs fan out onto
// the worker pool; each row's statistics reduce in rep order, so the
// profile is identical at any worker count.
func RunLatency(cfg LatencyConfig) (LatencyResult, error) {
	cfg.applyDefaults()
	reps := cfg.RunsPerValue
	ticks, err := runJobs(len(cfg.Values)*reps, func(i int) (latencyTicks, error) {
		v, rep := cfg.Values[i/reps], i%reps
		trial := Trial{
			Seed:     cfg.BaseSeed + int64(9000+rep%23),
			TrajIdx:  rep % 2,
			Scenario: ScenarioB,
			B: inject.ScenarioBParams{
				Value:           v,
				Channel:         rep % 3,
				StartDelayTicks: 500 + 41*rep,
				ActivationTicks: 256,
				Seed:            int64(rep),
			},
		}
		res, startTick, err := trial.run(paperDetector)
		if err != nil {
			return latencyTicks{}, err
		}
		return latencyTicks{startTick, res[0].AlarmTick, res[0].ImpactTick}, nil
	})
	if err != nil {
		return LatencyResult{}, err
	}

	var out LatencyResult
	for vi, v := range cfg.Values {
		row := LatencyRow{Value: v, Runs: reps}
		var lat, margin stats.Running
		for rep := 0; rep < reps; rep++ {
			tk := ticks[vi*reps+rep]
			if tk.alarm >= 0 && tk.start >= 0 {
				row.Detected++
				lat.Add(float64(tk.alarm - tk.start))
				if tk.impact >= 0 {
					margin.Add(float64(tk.impact - tk.alarm))
				}
			}
		}
		row.Latency = lat.Summarize()
		row.ImpactMargin = margin.Summarize()
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Write renders the latency profile.
func (r LatencyResult) Write(w io.Writer) {
	fmt.Fprintln(w, "DETECTION LATENCY (scenario B, 256 ms activation)")
	fmt.Fprintf(w, "%-8s %10s %16s %16s %22s\n", "Value", "Detected", "latency mean ms", "latency max ms", "margin-to-injury ms")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %7d/%-3d %16.1f %16.0f %22.0f\n",
			row.Value, row.Detected, row.Runs,
			row.Latency.Mean, row.Latency.Max, row.ImpactMargin.Mean)
	}
}
