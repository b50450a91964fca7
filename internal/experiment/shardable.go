package experiment

import (
	"encoding/json"
	"fmt"
	"io"
)

// CampaignShard is a campaign in shardable form: a deterministic job-index
// space, a range runner producing a JSON partial aggregate, an
// adjacent-range merge, and a renderer for the full-coverage result. The
// contract (see internal/shard): the merged partial of any contiguous
// partition of [0, Jobs), in any adjacency-respecting order, is
// byte-identical to RunRange(0, Jobs) — counters and maxima merge exactly,
// mean/std streams reduce through the index-aligned stats.Forest, and the
// JSON wire form round-trips float64 values losslessly.
type CampaignShard struct {
	// Name identifies the campaign in streamed frames; workers and
	// coordinators must agree on it.
	Name string
	// Jobs is the size of the job-index space.
	Jobs int
	// TrialsPerJob is how many simulated sessions one job costs —
	// the throughput denominator coordinators report.
	TrialsPerJob int
	// RunRange runs jobs [lo, hi) and returns their partial aggregate.
	RunRange func(lo, hi int) (json.RawMessage, error)
	// Merge combines the partials of two adjacent ranges (a immediately
	// left of b).
	Merge func(a, b json.RawMessage) (json.RawMessage, error)
	// Render finalizes a full-coverage partial and writes the report.
	Render func(w io.Writer, full json.RawMessage) error
}

// shardify adapts a typed campaign (range runner, adjacent merge,
// renderer) to the JSON-framed CampaignShard form.
func shardify[P any](name string, jobs, trialsPerJob int,
	run func(lo, hi int) (P, error),
	merge func(a, b P) (P, error),
	render func(w io.Writer, p P) error,
) CampaignShard {
	decode := func(raw json.RawMessage) (P, error) {
		var p P
		if err := json.Unmarshal(raw, &p); err != nil {
			return p, fmt.Errorf("experiment: %s partial: %w", name, err)
		}
		return p, nil
	}
	encode := func(p P) (json.RawMessage, error) {
		data, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s partial: %w", name, err)
		}
		return data, nil
	}
	return CampaignShard{
		Name:         name,
		Jobs:         jobs,
		TrialsPerJob: trialsPerJob,
		RunRange: func(lo, hi int) (json.RawMessage, error) {
			p, err := run(lo, hi)
			if err != nil {
				return nil, err
			}
			return encode(p)
		},
		Merge: func(a, b json.RawMessage) (json.RawMessage, error) {
			pa, err := decode(a)
			if err != nil {
				return nil, err
			}
			pb, err := decode(b)
			if err != nil {
				return nil, err
			}
			m, err := merge(pa, pb)
			if err != nil {
				return nil, err
			}
			return encode(m)
		},
		Render: func(w io.Writer, full json.RawMessage) error {
			p, err := decode(full)
			if err != nil {
				return err
			}
			return render(w, p)
		},
	}
}

// FaultCampaignShard is the fault campaign in shardable form (job = seed
// index; each job runs every guarded policy × kind session of one seed,
// and PolicyOff reads its records off PolicyMonitor's).
func FaultCampaignShard(c FaultCampaignConfig) CampaignShard {
	c.applyDefaults()
	return shardify("faultcampaign", c.Seeds, (len(AllPolicies())-1)*len(c.Kinds),
		func(lo, hi int) (FaultCampaignResult, error) { return RunFaultCampaignRange(c, lo, hi) },
		mergeFaultCampaignResults,
		func(w io.Writer, p FaultCampaignResult) error { p.Write(w); return nil },
	)
}

// Table1Shard is Table I in shardable form (job = attack variant).
func Table1Shard(baseSeed int64) CampaignShard {
	return shardify("table1", Table1Jobs(), 2,
		func(lo, hi int) (Table1Result, error) { return RunTable1Range(baseSeed, lo, hi) },
		mergeTable1Results,
		func(w io.Writer, p Table1Result) error { p.Write(w); return nil },
	)
}

// Table4Shard is Table IV in shardable form (job = trial index; scenario A
// at [0, RunsA), scenario B at [RunsA, RunsA+RunsB)).
func Table4Shard(cfg Table4Config) CampaignShard {
	cfg.applyDefaults()
	return shardify("table4", Table4Jobs(cfg), 1,
		func(lo, hi int) (Table4Partial, error) { return RunTable4Range(cfg, lo, hi) },
		mergeTable4Partials,
		func(w io.Writer, p Table4Partial) error { FinalizeTable4(p).Write(w); return nil },
	)
}

// Fig9Shard is Figure 9 in shardable form (job = cell repetition,
// cell-major).
func Fig9Shard(cfg Fig9Config) CampaignShard {
	cfg.applyDefaults()
	return shardify("fig9", Fig9Jobs(cfg), 1,
		func(lo, hi int) (Fig9Partial, error) { return RunFig9Range(cfg, lo, hi) },
		mergeFig9Partials,
		func(w io.Writer, p Fig9Partial) error {
			Fig9Result{Cells: p.Cells, Reps: cfg.Reps}.Write(w)
			return nil
		},
	)
}

// MitigationShard is the mitigation sweep in shardable form (job = attack
// index; each job runs every arm × value session of one attack).
func MitigationShard(values []int16, cfg MitigationConfig) CampaignShard {
	cfg.applyDefaults()
	if len(values) == 0 {
		values = []int16{cfg.Value}
	}
	return shardify("mitigation", MitigationSweepJobs(cfg), len(protectionArms)*len(values),
		func(lo, hi int) (MitigationPartial, error) { return RunMitigationSweepRange(values, cfg, lo, hi) },
		mergeMitigationPartials,
		func(w io.Writer, p MitigationPartial) error {
			results, err := FinalizeMitigationSweep(cfg, p)
			if err != nil {
				return err
			}
			for _, res := range results {
				res.Write(w)
				fmt.Fprintln(w)
			}
			return nil
		},
	)
}
