// Fault-tolerant campaign execution: the supervised coordinator and the
// serve-mode worker it dispatches to. `labrunner -shards n` runs the
// campaign through shard.Supervise — worker crashes, hangs, torn frames
// and stdout garbage cost only the affected chunks' re-execution, a
// -journal makes the coordinator itself restartable (-resume), and a
// -chaos plan injects seeded control-plane failures so all of it is
// drillable. The merged report stays byte-identical to the in-process
// run through every failure and resume.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ravenguard/internal/experiment"
	"ravenguard/internal/shard"
	"ravenguard/internal/sim"
)

// superOpts carries the fault-tolerance flags of the supervised
// coordinator.
type superOpts struct {
	chaos        string        // worker-side chaos plan (passed through to -serve workers)
	journal      string        // coordinator journal path ("" = no journal)
	resume       bool          // resume a killed campaign from the journal
	deadline     time.Duration // per-chunk frame deadline (0 = no straggler detection)
	retries      int           // max dispatch attempts per chunk (0 = supervisor default)
	dieAfter     int           // test hook: halt after this many journaled frames
	journalFlush int           // fsync the journal every n frames
}

// Supervisor timing defaults. Backoff paces chunk retries so a crash-
// looping worker cannot spin the dispatcher; Grace bounds how long a
// worker may ignore SIGTERM before SIGKILL.
const (
	retryBackoff    = 50 * time.Millisecond
	retryBackoffCap = 2 * time.Second
	killGrace       = 2 * time.Second
	idleTick        = 50 * time.Millisecond
)

// errDieAfter is the -dieafter halt sentinel: a deterministic stand-in
// for "the coordinator was killed mid-campaign" that check scripts can
// trigger without racing real signals.
var errDieAfter = errors.New("halted by -dieafter")

// campaignDigest fingerprints every flag that shapes the job-index space
// and per-job work; a journal written under a different digest must not
// be resumed (its partials belong to a different campaign).
func campaignDigest(o campaignOpts) string {
	return fmt.Sprintf("seed=%d,quick=%v,seeds=%d", o.seed, o.quick, o.seeds)
}

// effectiveChunk sizes dispatch chunks: the -chunk bound, tightened so a
// fresh campaign yields at least one chunk per worker (otherwise small
// job spaces would leave workers idle that the pre-supervision
// shard-per-worker split kept busy).
func effectiveChunk(chunk, jobs, workers int) int {
	if chunk <= 0 {
		chunk = defaultChunk
	}
	if workers > 0 {
		per := (jobs + workers - 1) / workers
		if per > 0 && chunk > per {
			chunk = per
		}
	}
	return chunk
}

// startTicker adapts a wall ticker to the supervisor's Tick channel.
// Sends drop when the supervisor is mid-event; the next tick wakes it.
func startTicker(every time.Duration) (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	done := make(chan struct{})
	tkr := time.NewTicker(every)
	go func() {
		for {
			select {
			case <-tkr.C:
				select {
				case ch <- struct{}{}:
				default:
				}
			case <-done:
				return
			}
		}
	}()
	return ch, func() { tkr.Stop(); close(done) }
}

// parseDispatch decodes one coordinator job line ("lo:hi:attempt").
func parseDispatch(line string) (shard.Range, int, error) {
	var lo, hi, attempt int
	if _, err := fmt.Sscanf(line, "%d:%d:%d", &lo, &hi, &attempt); err != nil {
		return shard.Range{}, 0, fmt.Errorf("serve: bad dispatch line %q, want lo:hi:attempt", line)
	}
	return shard.Range{Lo: lo, Hi: hi}, attempt, nil
}

// runShardServe is `labrunner -exp X -serve`: a long-lived supervised
// worker. It reads "lo:hi:attempt" job lines on stdin, answers each with
// one partial-aggregate frame on stdout, and exits cleanly on stdin EOF
// (the coordinator's end-of-work signal). A -chaos plan makes the worker
// inflict seeded failures on itself — the drill surface for the
// supervisor's recovery paths.
func runShardServe(o campaignOpts, chaosSpec string) error {
	cs, err := shardableSpec(o)
	if err != nil {
		return err
	}
	plan, err := shard.ParseChaosPlan(chaosSpec)
	if err != nil {
		return err
	}
	br := bufio.NewReader(os.Stdin)
	for {
		line, rerr := br.ReadString('\n')
		if trimmed := strings.TrimSpace(line); trimmed != "" {
			r, attempt, err := parseDispatch(trimmed)
			if err != nil {
				return err
			}
			if r.Lo < 0 || r.Hi > cs.Jobs || r.Lo >= r.Hi {
				return fmt.Errorf("serve: dispatched range %v outside job space [0,%d)", r, cs.Jobs)
			}
			if err := enactChaos(plan, cs.Name, r, attempt); err != nil {
				return err
			}
			partial, err := cs.RunRange(r.Lo, r.Hi)
			if err != nil {
				return fmt.Errorf("serve %s: jobs %v: %w", cs.Name, r, err)
			}
			if err := shard.WriteFrame(os.Stdout, shard.Frame{
				Campaign: cs.Name,
				Range:    r,
				Partial:  partial,
			}); err != nil {
				return err
			}
			// Drop the memoised reference traces with the chunk, keeping
			// worker memory flat however many chunks this incarnation serves.
			experiment.ResetReferenceCache()
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// enactChaos inflicts the plan's action for one dispatched chunk.
func enactChaos(plan shard.ChaosPlan, campaign string, r shard.Range, attempt int) error {
	switch plan.Decide(r, attempt) {
	case shard.ChaosCrash:
		fmt.Fprintf(os.Stderr, "labrunner: chaos: crashing on %v (attempt %d)\n", r, attempt)
		os.Exit(3)
	case shard.ChaosTruncate:
		// The stdout shape of a mid-frame SIGKILL: a torn, newline-less
		// frame prefix.
		fmt.Fprintf(os.Stderr, "labrunner: chaos: dying mid-frame on %v (attempt %d)\n", r, attempt)
		fmt.Fprintf(os.Stdout, `{"v":%d,"campaign":%q,"ran`, shard.FrameVersion, campaign)
		os.Exit(3)
	case shard.ChaosGarbage:
		fmt.Fprintf(os.Stderr, "labrunner: chaos: poisoning stdout on %v (attempt %d)\n", r, attempt)
		fmt.Fprintln(os.Stdout, "chaos: this line is not a frame")
		os.Exit(3)
	case shard.ChaosStall:
		fmt.Fprintf(os.Stderr, "labrunner: chaos: stalling on %v (attempt %d)\n", r, attempt)
		time.Sleep(24 * time.Hour) // hang until the straggler deadline kills us
	}
	return nil
}

// frameMerger folds streamed frames for one campaign.
func frameMerger(cs experiment.CampaignShard) (*shard.Merger[[]byte], func(shard.Frame) error) {
	m := shard.NewMerger(cs.Jobs, func(a, b []byte) ([]byte, error) { return cs.Merge(a, b) })
	observe := func(f shard.Frame) error {
		if f.Campaign != cs.Name {
			return fmt.Errorf("frame for campaign %q, expected %q (worker/coordinator -exp mismatch)", f.Campaign, cs.Name)
		}
		return m.Observe(f.Range, f.Partial)
	}
	return m, observe
}

// resumeJournal replays a prior coordinator's journal into the merger,
// compacts the file down to the coalesced covered ranges, and returns
// the reopened journal plus the uncovered job ranges still to run.
func resumeJournal(path string, want shard.JournalHeader, merger *shard.Merger[[]byte],
	observe func(shard.Frame) error, flushEvery int) (*shard.Journal, []shard.Range, error) {
	h, frames, truncated, err := shard.LoadJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if h.Campaign != want.Campaign || h.Jobs != want.Jobs || h.Config != want.Config {
		return nil, nil, fmt.Errorf(
			"journal %s was written by a different campaign configuration (journal: %s jobs=%d %s; flags: %s jobs=%d %s)",
			path, h.Campaign, h.Jobs, h.Config, want.Campaign, want.Jobs, want.Config)
	}
	for _, f := range frames {
		// Duplicates (a frame journaled, the campaign killed, the chunk
		// re-run and journaled again post-compaction) drop as no-ops.
		if err := observe(f); err != nil {
			return nil, nil, fmt.Errorf("journal %s: replay frame %v: %w", path, f.Range, err)
		}
	}
	if truncated {
		fmt.Fprintf(os.Stderr, "labrunner: journal %s ends mid-line (coordinator died mid-write); the torn frame's chunk will re-run\n", path)
	}
	var compacted []shard.Frame
	for _, pt := range merger.Parts() {
		compacted = append(compacted, shard.Frame{
			Campaign: want.Campaign, Range: pt.Range, Partial: pt.Partial,
		})
	}
	jnl, err := shard.CompactJournal(path, want, compacted, flushEvery)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "labrunner: resuming %s: %d/%d jobs already covered (%d journal frames compacted to %d)\n",
		path, merger.Covered(), want.Jobs, len(frames), len(compacted))
	return jnl, merger.Missing(), nil
}

// runShardCoordinator is `labrunner -shards n`: run the selected campaign
// across n supervised serve-mode worker processes. Chunks are dispatched
// individually and re-dispatched on failure, hung workers are killed at
// the -deadline, and with -journal every accepted frame is persisted so
// a killed coordinator restarts with -resume running only the uncovered
// job ranges. The rendered report is byte-identical to the in-process
// run regardless of failures, worker count, or how many resumes it took.
func runShardCoordinator(o campaignOpts, count int, so superOpts) error {
	cs, err := shardableSpec(o)
	if err != nil {
		return err
	}
	if _, err := shard.ParseChaosPlan(so.chaos); err != nil {
		return err // reject a bad plan here, not in every worker
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	merger, observe := frameMerger(cs)

	space := []shard.Range{{Lo: 0, Hi: cs.Jobs}}
	var jnl *shard.Journal
	header := shard.JournalHeader{Campaign: cs.Name, Jobs: cs.Jobs, Config: campaignDigest(o)}
	switch {
	case so.journal != "" && so.resume:
		jnl, space, err = resumeJournal(so.journal, header, merger, observe, so.journalFlush)
		if err != nil {
			return err
		}
	case so.journal != "":
		jnl, err = shard.CreateJournal(so.journal, header, so.journalFlush)
		if errors.Is(err, shard.ErrJournalExists) {
			return fmt.Errorf("%w; pass -resume to continue it", err)
		}
		if err != nil {
			return err
		}
	case so.resume:
		return errors.New("-resume requires -journal")
	}
	if jnl != nil {
		defer jnl.Close()
	}

	chunkSize := effectiveChunk(o.chunk, cs.Jobs, count)
	var chunks []shard.Range
	for _, gap := range space {
		chunks = append(chunks, shard.Chunks(gap, chunkSize)...)
	}

	journaled := 0
	onFrame := func(f shard.Frame) error {
		if err := observe(f); err != nil {
			return err
		}
		if jnl != nil {
			if err := jnl.Append(f); err != nil {
				return err
			}
		}
		journaled++
		if so.dieAfter > 0 && journaled >= so.dieAfter {
			return errDieAfter
		}
		return nil
	}

	tickEvery := idleTick
	if so.deadline > 0 && so.deadline/4 < tickEvery {
		tickEvery = so.deadline / 4
	}
	tick, stopTick := startTicker(tickEvery)
	defer stopTick()

	start := time.Now()
	stats, err := shard.Supervise(shard.SupervisorConfig{
		Chunks:      chunks,
		Workers:     count,
		MaxAttempts: so.retries,
		Clock:       shard.Clock(sim.WallClock),
		Tick:        tick,
		Deadline:    so.deadline.Nanoseconds(),
		Backoff:     retryBackoff.Nanoseconds(),
		BackoffCap:  retryBackoffCap.Nanoseconds(),
		Grace:       killGrace.Nanoseconds(),
		Spawn: shard.ExecSpawner(func(slot, inc int) []string {
			argv := []string{
				exe,
				"-exp", o.exp,
				"-serve",
				"-seed", fmt.Sprint(o.seed),
				"-workers", fmt.Sprint(o.workers),
			}
			if o.quick {
				argv = append(argv, "-quick")
			}
			if o.seeds > 0 {
				argv = append(argv, "-seeds", fmt.Sprint(o.seeds))
			}
			if so.chaos != "" {
				argv = append(argv, "-chaos", so.chaos)
			}
			return argv
		}),
		OnFrame: onFrame,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "labrunner: "+format+"\n", args...)
		},
	})
	if errors.Is(err, errDieAfter) {
		// The deferred Close syncs the journal before we report the halt.
		return fmt.Errorf("%w after %d journaled frames; rerun with -resume to finish", errDieAfter, journaled)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if stats.Recovered() {
		fmt.Fprintf(os.Stderr,
			"labrunner: campaign recovered: %d chunk retries, %d worker respawns, %d stragglers killed, %d poisoned streams, %d duplicate frames dropped\n",
			stats.Retries, stats.Respawns, stats.Stragglers, stats.Garbage, stats.DupFrames)
	}
	full, err := merger.Result()
	if err != nil {
		return err
	}
	if err := cs.Render(os.Stdout, full); err != nil {
		return err
	}
	trials := cs.Jobs * cs.TrialsPerJob
	fmt.Printf("(%d shards: %d jobs, %d trials in %.1fs = %.1f trials/s; peak worker RSS %.1f MB; worker CPU %.1fs)\n",
		count, cs.Jobs, trials, elapsed.Seconds(),
		float64(trials)/elapsed.Seconds(),
		float64(stats.PeakRSSBytes)/(1<<20), stats.TotalCPU)
	return nil
}
