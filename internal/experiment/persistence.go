package experiment

import (
	"fmt"
	"io"

	"ravenguard/internal/inject"
)

// PersistenceConfig sizes the availability-under-persistent-malware
// experiment. The paper observes that a wrapper loaded through the user's
// shell profile "will be reloaded to the system on each run of the robot
// even after restarting the system ... and practically make the robot
// unavailable to the surgical team". This experiment measures exactly
// that: N consecutive surgery attempts with the malware present on every
// one, under three protection regimes.
type PersistenceConfig struct {
	// Attempts is the number of consecutive surgery attempts (default 20).
	Attempts int
	// Value/Duration of the scenario-B injection active on every attempt.
	Value    int16
	Duration int
	BaseSeed int64
}

func (c *PersistenceConfig) applyDefaults() {
	if c.Attempts == 0 {
		c.Attempts = 20
	}
	if c.Value == 0 {
		c.Value = 16000
	}
	if c.Duration == 0 {
		c.Duration = 128
	}
}

// PersistenceArm is one protection regime's availability outcome.
type PersistenceArm struct {
	Name string
	// Completed is how many attempts finished the procedure (no E-STOP).
	Completed int
	Attempts  int
}

// Availability returns the completed fraction.
func (a PersistenceArm) Availability() float64 {
	if a.Attempts == 0 {
		return 0
	}
	return float64(a.Completed) / float64(a.Attempts)
}

// PersistenceResult compares the regimes.
type PersistenceResult struct {
	Config PersistenceConfig
	Arms   []PersistenceArm
}

// RunPersistence measures availability across consecutive attempts.
func RunPersistence(cfg PersistenceConfig) (PersistenceResult, error) {
	cfg.applyDefaults()
	out := PersistenceResult{Config: cfg}
	for _, armSpec := range protectionArms {
		arm := PersistenceArm{Name: armSpec.name, Attempts: cfg.Attempts}
		for i := 0; i < cfg.Attempts; i++ {
			// The persistent malware triggers on every attempt.
			rig, err := attackedSessionRig(cfg.BaseSeed+int64(8500+i), i%2, inject.ScenarioBParams{
				Value:           cfg.Value,
				Channel:         i % 3,
				StartDelayTicks: 400 + 97*(i%17),
				ActivationTicks: cfg.Duration,
				Seed:            int64(i),
			}, armSpec.mode)
			if err != nil {
				return PersistenceResult{}, err
			}
			if _, err := rig.Run(0); err != nil {
				return PersistenceResult{}, err
			}
			if completed(rig) {
				arm.Completed++
			}
		}
		out.Arms = append(out.Arms, arm)
	}
	return out, nil
}

// Write renders the availability comparison.
func (r PersistenceResult) Write(w io.Writer) {
	fmt.Fprintf(w, "AVAILABILITY UNDER PERSISTENT MALWARE (every attempt attacked, value=%d, period=%d ms)\n",
		r.Config.Value, r.Config.Duration)
	fmt.Fprintf(w, "%-28s %12s %14s\n", "Protection", "Completed", "Availability")
	for _, arm := range r.Arms {
		fmt.Fprintf(w, "%-28s %8d/%-3d %13.0f%%\n",
			arm.Name, arm.Completed, arm.Attempts, arm.Availability()*100)
	}
	fmt.Fprintln(w, `(the paper: a persistent wrapper "would practically make the robot unavailable";`)
	fmt.Fprintln(w, ` hold-safe mitigation restores availability without accepting the attack's motion)`)
}
