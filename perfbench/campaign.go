package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"ravenguard/internal/experiment"
)

// Campaign workloads call job ranges ("ops") of a campaign from closed-loop
// clients: each client starts its next op when its last one finishes. The
// ops form a walk grouped in blocks, and the reference cache is reset
// between blocks, the way a labrunner shard worker resets it after every
// chunk it streams.

// op is one closed-loop call into a campaign: a job range of one shard.
type op struct {
	shard  *experiment.CampaignShard
	lo, hi int
}

// trials is how many trials the op runs.
func (o op) trials() int { return (o.hi - o.lo) * o.shard.TrialsPerJob }

// campaign is a campaign workload's generated inputs.
type campaign struct {
	shards []*experiment.CampaignShard
	// block returns the ops of the walk's k-th block.
	block func(k int) []op
	// clients is how many closed-loop clients run the walk's ops.
	clients int
	// warmOps is how many of the walk's first ops a set-up runs.
	warmOps int
	// traceOps is how many of the first block's ops one traced pass runs.
	traceOps int
	// check verifies the window's outputs against an independent
	// computation, outside the window. It returns how many trials failed
	// and the deterministic output the record hashes.
	check func(w window) (bad int, out []byte, err error)
}

// opAt returns the op at position i of the walk.
func (c campaign) opAt(i int) op {
	for k := 0; ; k++ {
		b := c.block(k)
		if i < len(b) {
			return b[i]
		}
		i -= len(b)
	}
}

// window is what a stretch of the walk produced.
type window struct {
	ops   []op
	parts [][]byte  // per op: its partial, nil if it failed
	ms    []float64 // per op: wall time
	wall  float64   // seconds, cache resets included
}

// runWalk runs the campaign's walk from its start, resetting the
// reference cache before every block, until the deadline end has passed
// or maxOps ops have run (when maxOps > 0). At least one op runs.
func runWalk(c campaign, end time.Time, maxOps int) window {
	var w window
	start := time.Now()
	for k := 0; ; k++ {
		experiment.ResetReferenceCache()
		ops := c.block(k)
		if n := runOps(&w, ops, c.clients, end, maxOps); n < len(ops) {
			w.wall = time.Since(start).Seconds()
			return w
		}
	}
}

// runOps runs ops in order on clients closed-loop goroutines and appends
// them to w, finished. Clients stop taking ops once end has passed or w
// would hold maxOps (when maxOps > 0); w ends up with at least one op. It
// returns how many of ops ran.
func runOps(w *window, ops []op, clients int, end time.Time, maxOps int) int {
	parts := make([][]byte, len(ops))
	ms := make([]float64, len(ops))
	var mu sync.Mutex
	taken := 0
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		done := len(w.ops) + taken
		if taken == len(ops) || (done > 0 && ((maxOps > 0 && done >= maxOps) || !time.Now().Before(end))) {
			return -1
		}
		taken++
		return taken - 1
	}
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := take(); i >= 0; i = take() {
				t0 := time.Now()
				part, err := ops[i].shard.RunRange(ops[i].lo, ops[i].hi)
				ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				if err == nil {
					parts[i] = part
				}
			}
		}()
	}
	wg.Wait()
	w.ops = append(w.ops, ops[:taken]...)
	w.parts = append(w.parts, parts[:taken]...)
	w.ms = append(w.ms, ms[:taken]...)
	return taken
}

// mergePart folds part into merged, the running partials of shards, at
// the slot of the shard it came from. It reports false when that shard's
// merge rejects it.
func mergePart(shards []*experiment.CampaignShard, merged [][]byte, from *experiment.CampaignShard, part []byte) bool {
	for si, s := range shards {
		if s != from {
			continue
		}
		if merged[si] == nil {
			merged[si] = part
			return true
		}
		m, err := s.Merge(merged[si], part)
		if err != nil {
			return false
		}
		merged[si] = m
		return true
	}
	return false
}

// mergeOps folds the ops' partials per shard in op order and counts the
// trials that merged and the ones that failed or were rejected.
func mergeOps(shards []*experiment.CampaignShard, ops []op, parts [][]byte) (merged [][]byte, trials, failed int) {
	merged = make([][]byte, len(shards))
	for i, o := range ops {
		if parts[i] != nil && mergePart(shards, merged, o.shard, parts[i]) {
			trials += o.trials()
		} else {
			failed += o.trials()
		}
	}
	return merged, trials, failed
}

// runAt runs one op on the campaign pool at n workers.
func runAt(n int, o op) ([]byte, error) {
	experiment.SetWorkers(n)
	defer experiment.SetWorkers(poolSize())
	return o.shard.RunRange(o.lo, o.hi)
}

// partAt is the window's partial of the walk's op at position i, or, when
// the window did not reach it or the op failed there, a fresh run of it.
func partAt(c campaign, w window, i int) ([]byte, error) {
	if i < len(w.parts) && w.parts[i] != nil {
		return w.parts[i], nil
	}
	return runAt(poolSize(), c.opAt(i))
}

// runCampaign is the untraced campaign loop: set-up (inputs plus the
// walk's first ops) setupRepeats times, then the walk until the window
// closes, then the output checks. The walk never repeats a job, so the
// rows pool the whole window: throughput is trials over wall time, the
// latency percentiles are taken over every op. Neither row's expected
// value depends on how many ops fit in the window.
func runCampaign(o options, r *result, build func(seed int64) campaign) error {
	experiment.SetWorkers(poolSize())
	var c campaign
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		c = build(o.seed)
		runWalk(c, t0.Add(time.Hour), c.warmOps)
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", "s", setups...)

	w := runWalk(c, o.deadline(time.Now()), 0)

	trials, failed := 0, 0
	for i, op := range w.ops {
		if w.parts[i] == nil {
			failed += op.trials()
			r.note("op %d (%d:%d) failed", i, op.lo, op.hi)
			continue
		}
		trials += op.trials()
	}
	r.check(trials+failed, failed)
	bad, out, err := c.check(w)
	if err != nil {
		return fmt.Errorf("output check: %w", err)
	}
	r.check(0, bad)
	r.output = out

	tps := float64(trials) / w.wall
	r.setValue("trials_per_s", "1/s", tps)
	r.setValue("sessions_per_core", "count", tps/float64(poolSize()))
	r.setValue("tick_p50_ms", "ms", percentile(w.ms, 0.50), w.ms...)
	r.setValue("tick_p99_ms", "ms", percentile(w.ms, 0.99), w.ms...)
	r.note("%d ops (%d trials) at pool size %d", len(w.ops), trials+failed, poolSize())
	return nil
}

// The trials workload is the Table IV detection campaign, walked the way a
// labrunner shard worker walks it: chunks of shardChunk consecutive jobs
// with the reference cache reset after each. poolSize clients take the
// chunk's jobs in order, one job per op, so every worker stays busy as it
// does on one RunRange call over the chunk, and each op's latency is one
// trial's. Chunks alternate between the scenario-A and the scenario-B job
// range, each range walked from a seed-chosen chunk, so every run starts
// with an A chunk and sees both scenarios.
//
// Table IV keys its fault-free references by trial index mod 194 within a
// scenario, so a whole chunk of 256 jobs inside one scenario builds 194
// references: 76% of its trials start cold. An in-process run of the
// whole campaign builds 388 references for 3286 trials (12% cold); the
// workload models the sharded deployment, which pays the higher share.
const (
	table4RunsA = 1925
	table4RunsB = 1361
	// shardChunk is labrunner's default shard-worker chunk (defaultChunk).
	shardChunk = 256
	// trialsCheckOps ops, trialsCheckStride apart along the walk (so the
	// last lies in the first B chunk), are rerun at pool size 1 to check
	// the window's outputs.
	trialsCheckOps    = 8
	trialsCheckStride = 37
	// trialsTraceOps is how many ops one traced pass runs.
	trialsTraceOps = 40
)

func buildTrials(seed int64) campaign {
	cfg := experiment.Table4Config{RunsA: table4RunsA, RunsB: table4RunsB, BaseSeed: seed}
	sh := experiment.Table4Shard(cfg)
	// Chunk starts within each scenario's range, kept a whole chunk
	// inside it so every chunk has the same reference share.
	startsA := (table4RunsA - shardChunk) / shardChunk
	startsB := (table4RunsB - shardChunk) / shardChunk
	a0, b0 := seedIndex(seed, startsA+1), seedIndex(seed, startsB+1)
	c := campaign{shards: []*experiment.CampaignShard{&sh}, clients: poolSize(), warmOps: 2 * poolSize(), traceOps: trialsTraceOps}
	c.block = func(k int) []op {
		lo := table4RunsA + ((b0+k/2)%(startsB+1))*shardChunk
		if k%2 == 0 {
			lo = ((a0 + k/2) % (startsA + 1)) * shardChunk
		}
		ops := make([]op, shardChunk)
		for j := range ops {
			ops[j] = op{&sh, lo + j, lo + j + 1}
		}
		return ops
	}
	c.check = func(w window) (int, []byte, error) {
		// Sampled ops of the walk rerun at pool size 1 must reproduce the
		// window's partials; the reruns are the record's output.
		var out []byte
		bad := 0
		experiment.ResetReferenceCache()
		for s := 0; s < trialsCheckOps; s++ {
			i := s * trialsCheckStride
			one, err := runAt(1, c.opAt(i))
			if err != nil {
				return 0, nil, err
			}
			got, err := partAt(c, w, i)
			if err != nil || !bytes.Equal(got, one) {
				bad += c.opAt(i).trials()
			}
			out = append(out, one...)
		}
		return bad, out, nil
	}
	return c
}

// seedIndex maps the seed onto [0, n).
func seedIndex(seed int64, n int) int {
	return int((seed%int64(n) + int64(n)) % int64(n))
}

func runTrials(o options, r *result) error {
	return runCampaign(o, r, buildTrials)
}
