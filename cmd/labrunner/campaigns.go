package main

import (
	"fmt"

	"ravenguard/internal/experiment"
)

// campaignOpts carries the flags that size a Monte Carlo campaign, plus
// the scale-out knobs the supervised coordinator passes to its workers.
type campaignOpts struct {
	exp     string
	quick   bool
	seed    int64
	seeds   int // faultcampaign seed-count override (0 = campaign default)
	chunk   int // jobs per dispatched chunk (0 = default)
	workers int // per-process worker-pool size passthrough
}

// defaultChunk bounds how many jobs a worker retains between frames: after
// each chunk the partial is flushed and the reference cache dropped, so
// worker memory stays flat at any trial count.
const defaultChunk = 256

// Each campaign is sized here and only here: the in-process -exp blocks
// and the supervised -shards path both call these, so a sharded run
// always covers exactly the job space the in-process table does.

// table4Config sizes Table IV at the paper's scenario-A and scenario-B
// run counts.
func table4Config(o campaignOpts) experiment.Table4Config {
	if o.quick {
		return experiment.Table4Config{RunsA: 150, RunsB: 150, BaseSeed: o.seed}
	}
	return experiment.Table4Config{RunsA: 1925, RunsB: 1361, BaseSeed: o.seed}
}

// fig9Config sizes Figure 9's value×duration sweep.
func fig9Config(o campaignOpts) experiment.Fig9Config {
	reps := 20
	if o.quick {
		reps = 5
	}
	return experiment.Fig9Config{Reps: reps, BaseSeed: o.seed}
}

// mitigationSweep sizes the mitigation comparison: the injected values it
// sweeps and the attacks per value.
func mitigationSweep(o campaignOpts) ([]int16, experiment.MitigationConfig) {
	attacks := 60
	if o.quick {
		attacks = 12
	}
	return []int16{12000, 16000, 20000}, experiment.MitigationConfig{Attacks: attacks, BaseSeed: o.seed}
}

// faultCampaignConfig sizes the fault campaign; -seeds overrides its seed
// count for scale runs.
func faultCampaignConfig(o campaignOpts) experiment.FaultCampaignConfig {
	cfg := experiment.FaultCampaignConfig{BaseSeed: o.seed, Seeds: 3, Teleop: 6}
	if o.quick {
		cfg.Seeds, cfg.Teleop = 1, 4
	}
	if o.seeds > 0 {
		cfg.Seeds = o.seeds
	}
	return cfg
}

// shardableSpec builds the shardable form of the selected experiment.
func shardableSpec(o campaignOpts) (experiment.CampaignShard, error) {
	switch o.exp {
	case "table1":
		return experiment.Table1Shard(o.seed), nil
	case "table4":
		return experiment.Table4Shard(table4Config(o)), nil
	case "fig9":
		return experiment.Fig9Shard(fig9Config(o)), nil
	case "mitigation":
		return experiment.MitigationShard(mitigationSweep(o)), nil
	case "faultcampaign":
		return experiment.FaultCampaignShard(faultCampaignConfig(o)), nil
	default:
		return experiment.CampaignShard{}, fmt.Errorf("-exp %q is not shardable (shardable: table1|table4|fig9|mitigation|faultcampaign)", o.exp)
	}
}
