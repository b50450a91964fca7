package experiment

import (
	"fmt"
	"io"

	"ravenguard/internal/core"
	"ravenguard/internal/inject"
	"ravenguard/internal/metrics"
)

// AblationConfig sizes the ablation campaigns (smaller than Table IV).
type AblationConfig struct {
	Runs     int // attack trials per arm (default 120)
	BaseSeed int64
}

func (c *AblationConfig) applyDefaults() {
	if c.Runs == 0 {
		c.Runs = 120
	}
}

// AblationArm is one configuration's scores.
type AblationArm struct {
	Name      string
	Confusion metrics.Confusion
}

// AblationResult is a named set of arms.
type AblationResult struct {
	Title string
	Arms  []AblationArm
}

// ablationDetectors are the distinct guards the ablations compare; the
// arms of ablationArms index into it. Index 0 is the paper's guard, the
// one arm every ablation shares.
func ablationDetectors() []detector {
	scaled := func(scale float64) core.Thresholds {
		th := core.DefaultThresholds()
		for i := range th.MotorVel {
			th.MotorVel[i] *= scale
			th.MotorAccel[i] *= scale
			th.JointVel[i] *= scale
		}
		return th
	}
	return []detector{
		{},
		{cfg: core.Config{Fusion: core.FusionAny}},
		{cfg: core.Config{Thresholds: scaled(0.5)}},
		{cfg: core.Config{Thresholds: scaled(2)}},
		{aboveMalware: true},
		{cfg: core.Config{Resync: "kalman"}},
	}
}

// detArm names one ablation arm and its index into ablationDetectors.
type detArm struct {
	name string
	det  int
}

// ablationArms titles each ablation and lists its arms.
var ablationArms = []struct {
	title string
	arms  []detArm
}{
	{"Alarm fusion: all-three-AND (paper) vs any-variable-OR", []detArm{{"fusion=ALL (paper)", 0}, {"fusion=ANY", 1}}},
	// Threshold strictness: scaling the learned thresholds down (more
	// sensitive) and up (less sensitive) against the paper's
	// 99.8-99.9th percentile choice.
	{"Threshold scale around the learned 99.85th percentile", []detArm{{"thresholds x0.5 (looser trigger)", 2}, {"thresholds x1.0 (paper)", 0}, {"thresholds x2.0 (stricter trigger)", 3}}},
	// The paper's hardware-boundary placement against a guard above the
	// malicious wrapper, where it checks commands before the attacker
	// mutates them: the TOCTOU gap RAVEN's own checks suffer from.
	{"Detector placement: below vs above the malicious wrapper (TOCTOU)", []detArm{{"guard at hardware boundary (paper)", 0}, {"guard above malware (pre-attack check)", 4}}},
	// The paper's plain proportional resynchronisation against the
	// per-joint steady-state Kalman filter (following the UKF work the
	// paper cites).
	{"Model resync: proportional (paper) vs steady-state Kalman", []detArm{{"resync=proportional (paper)", 0}, {"resync=kalman", 5}}},
}

// RunAblations scores every ablation over one mixed scenario-B campaign
// (attacks of varying size plus fault-free runs) and returns them in
// order: alarm fusion, threshold scale, detector placement, model resync.
// Each trial runs once with every distinct guard riding along in monitor
// mode (see Trial.run), so the arms share their sessions.
func RunAblations(cfg AblationConfig) ([]AblationResult, error) {
	cfg.applyDefaults()
	vals, durs := scenarioBGrid()
	dets := ablationDetectors()
	verdicts, err := runJobs(cfg.Runs, func(i int) ([]Result, error) {
		trial := Trial{
			Seed:     cfg.BaseSeed + int64(7000+i%31),
			TrajIdx:  i % 2,
			Scenario: ScenarioB,
			B: inject.ScenarioBParams{
				Value:           vals[i%len(vals)],
				Channel:         i % 3,
				StartDelayTicks: 500 + 61*(i%29),
				ActivationTicks: durs[(i/len(vals))%len(durs)],
				Seed:            int64(i),
			},
		}
		if i%7 == 0 {
			trial.Scenario = ScenarioNone
		}
		res, _, err := trial.run(dets)
		return res, err
	})
	if err != nil {
		return nil, err
	}
	confs := make([]metrics.Confusion, len(dets))
	for _, res := range verdicts {
		for d, r := range res {
			confs[d].Observe(r.Impact, r.DynPreemptive)
		}
	}
	out := make([]AblationResult, len(ablationArms))
	for i, abl := range ablationArms {
		out[i].Title = abl.title
		for _, arm := range abl.arms {
			out[i].Arms = append(out[i].Arms, AblationArm{Name: arm.name, Confusion: confs[arm.det]})
		}
	}
	return out, nil
}

// Write renders one ablation.
func (r AblationResult) Write(w io.Writer) {
	fmt.Fprintf(w, "ABLATION: %s\n", r.Title)
	fmt.Fprintf(w, "%-42s %7s %7s %7s %7s\n", "Arm", "ACC", "TPR", "FPR", "F1")
	for _, arm := range r.Arms {
		c := arm.Confusion
		fmt.Fprintf(w, "%-42s %7.1f %7.1f %7.1f %7.1f\n", arm.Name, c.Accuracy(), c.TPR(), c.FPR(), c.F1())
	}
}
