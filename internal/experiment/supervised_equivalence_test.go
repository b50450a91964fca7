package experiment

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ravenguard/internal/fault"
	"ravenguard/internal/shard"
)

// The supervised coordinator must stay byte-identical to the in-process
// run through every failure it absorbs: chunk partials are deterministic
// per job range, so crashes, torn frames, poisoned streams and
// coordinator kills can only cost re-execution, never bits. These tests
// pin that through the same Supervise/Merger/Journal path labrunner's
// -shards coordinator uses, with in-process chaos workers running the
// real campaign ranges.

// chaosWorker is a supervised in-process worker: each dispatch runs the
// campaign range on a goroutine (like a worker process would), except
// where the chaos plan says to die first.
type chaosWorker struct {
	spec      CampaignShard
	plan      shard.ChaosPlan
	slot, inc int
	ev        chan<- shard.WorkerEvent

	mu   sync.Mutex
	dead bool
}

func (w *chaosWorker) send(ev shard.WorkerEvent) {
	ev.Slot, ev.Inc = w.slot, w.inc
	w.ev <- ev
}

func (w *chaosWorker) exit(err error) {
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return
	}
	w.dead = true
	w.mu.Unlock()
	w.send(shard.WorkerEvent{Kind: shard.EventExit, Err: err, RSSBytes: 1 << 20, CPUSeconds: 0.01})
}

func (w *chaosWorker) Dispatch(r shard.Range, attempt int) error {
	w.mu.Lock()
	dead := w.dead
	w.mu.Unlock()
	if dead {
		return errors.New("dispatch to dead worker")
	}
	go func() {
		switch w.plan.Decide(r, attempt) {
		case shard.ChaosCrash, shard.ChaosTruncate:
			// In process, a torn frame and a crash land the same way: the
			// incarnation dies without delivering the chunk.
			w.exit(errors.New("chaos: worker crash"))
			return
		case shard.ChaosGarbage:
			w.send(shard.WorkerEvent{Kind: shard.EventGarbage, Err: errors.New("chaos: poisoned stream")})
			return
		case shard.ChaosStall:
			return // silent forever; only a straggler deadline reaps this
		}
		p, err := w.spec.RunRange(r.Lo, r.Hi)
		if err != nil {
			w.exit(err)
			return
		}
		w.send(shard.WorkerEvent{Kind: shard.EventFrame, Frame: shard.Frame{
			V: shard.FrameVersion, Campaign: w.spec.Name, Range: r, Partial: p,
		}})
	}()
	return nil
}

func (w *chaosWorker) Close() { w.exit(nil) }
func (w *chaosWorker) Term()  { w.exit(errors.New("terminated")) }
func (w *chaosWorker) Kill()  { w.exit(errors.New("killed")) }

func chaosSpawner(spec CampaignShard, plan shard.ChaosPlan) func(int, int, chan<- shard.WorkerEvent) (shard.Worker, error) {
	return func(slot, inc int, ev chan<- shard.WorkerEvent) (shard.Worker, error) {
		return &chaosWorker{spec: spec, plan: plan, slot: slot, inc: inc, ev: ev}, nil
	}
}

// TestSupervisedChaosEquivalence pins the tentpole guarantee at 1 and 8
// workers: a campaign supervised under seeded chaos — with chunks lost
// to crashes, a torn frame, and a poisoned stream, all retried on
// respawned workers — merges to the same bytes as the clean
// single-range run, and renders the same report.
func TestSupervisedChaosEquivalence(t *testing.T) {
	spec := FaultCampaignShard(FaultCampaignConfig{
		BaseSeed: 60, Seeds: 4, Teleop: 4,
		Kinds: fault.AllKinds()[:2],
	})
	ResetReferenceCache()
	whole, err := spec.RunRange(0, spec.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	var wholeReport strings.Builder
	if err := spec.Render(&wholeReport, whole); err != nil {
		t.Fatal(err)
	}

	// Seed 7 over the 1-job chunk grid {0,1,2,3} schedules, in order:
	// truncate, clean, garbage, crash — every non-stall failure kind once
	// (stall needs a deadline clock; the supervisor's straggler tests own
	// that path).
	plan := shard.ChaosPlan{Seed: 7, Crash: 0.35, Truncate: 0.15, Garbage: 0.30}
	for _, workers := range []int{1, 8} {
		withWorkers(t, workers, func() {
			ResetReferenceCache()
			m := shard.NewMerger(spec.Jobs, spec.Merge)
			st, err := shard.Supervise(shard.SupervisorConfig{
				Chunks:  shard.Chunks(shard.Range{Lo: 0, Hi: spec.Jobs}, 1),
				Workers: workers,
				Clock:   func() int64 { return 0 },
				Spawn:   chaosSpawner(spec, plan),
				OnFrame: func(f shard.Frame) error { return m.Observe(f.Range, f.Partial) },
				Logf:    t.Logf,
			})
			if err != nil {
				t.Fatalf("%d workers: %v", workers, err)
			}
			if st.Retries != 3 || st.Respawns != 3 || st.Garbage != 1 {
				t.Fatalf("%d workers: stats %+v, want 3 retries, 3 respawns, 1 garbage", workers, st)
			}
			merged, err := m.Result()
			if err != nil {
				t.Fatalf("%d workers: %v", workers, err)
			}
			if !bytes.Equal(whole, merged) {
				t.Fatalf("%d workers: chaos run diverged from clean run\nwhole:  %s\nmerged: %s",
					workers, whole, merged)
			}
			var report strings.Builder
			if err := spec.Render(&report, merged); err != nil {
				t.Fatal(err)
			}
			if report.String() != wholeReport.String() {
				t.Fatalf("%d workers: rendered report diverged", workers)
			}
		})
	}
}

// TestSupervisedJournalResumeEquivalence pins coordinator restartability:
// a journaled campaign killed mid-run resumes from the journal — replay,
// compact, dispatch only the uncovered ranges, at a different worker
// count — and the final result is byte-identical to the clean run.
func TestSupervisedJournalResumeEquivalence(t *testing.T) {
	spec := Table4Shard(Table4Config{RunsA: 6, RunsB: 6, BaseSeed: 70})
	ResetReferenceCache()
	whole, err := spec.RunRange(0, spec.Jobs)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.journal")
	header := shard.JournalHeader{Campaign: spec.Name, Jobs: spec.Jobs, Config: "seed=70"}
	const chunkSize = 2

	// Phase 1: journaled run, coordinator "killed" after two accepted
	// frames (the same OnFrame halt labrunner's -dieafter hook uses).
	killed := errors.New("coordinator killed mid-campaign")
	jnl, err := shard.CreateJournal(path, header, 1)
	if err != nil {
		t.Fatal(err)
	}
	m1 := shard.NewMerger(spec.Jobs, spec.Merge)
	frames := 0
	ResetReferenceCache()
	withWorkers(t, 2, func() {
		_, err = shard.Supervise(shard.SupervisorConfig{
			Chunks:  shard.Chunks(shard.Range{Lo: 0, Hi: spec.Jobs}, chunkSize),
			Workers: 2,
			Clock:   func() int64 { return 0 },
			Spawn:   chaosSpawner(spec, shard.ChaosPlan{}),
			OnFrame: func(f shard.Frame) error {
				if err := m1.Observe(f.Range, f.Partial); err != nil {
					return err
				}
				if err := jnl.Append(f); err != nil {
					return err
				}
				if frames++; frames >= 2 {
					return killed
				}
				return nil
			},
		})
	})
	if !errors.Is(err, killed) {
		t.Fatalf("phase 1 err = %v, want the kill sentinel", err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume — replay the journal, compact it, supervise only
	// the uncovered ranges at a different worker count.
	h, replay, truncated, err := shard.LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated || h.Campaign != spec.Name || h.Jobs != spec.Jobs || h.Config != "seed=70" {
		t.Fatalf("journal header %+v truncated=%v", h, truncated)
	}
	if len(replay) != 2 {
		t.Fatalf("journal holds %d frames, want the 2 accepted before the kill", len(replay))
	}
	m2 := shard.NewMerger(spec.Jobs, spec.Merge)
	for _, f := range replay {
		if err := m2.Observe(f.Range, f.Partial); err != nil {
			t.Fatal(err)
		}
	}
	var compacted []shard.Frame
	for _, pt := range m2.Parts() {
		compacted = append(compacted, shard.Frame{
			Campaign: spec.Name, Range: pt.Range, Partial: pt.Partial,
		})
	}
	jnl2, err := shard.CompactJournal(path, header, compacted, 1)
	if err != nil {
		t.Fatal(err)
	}
	var gaps []shard.Range
	for _, gap := range m2.Missing() {
		gaps = append(gaps, shard.Chunks(gap, chunkSize)...)
	}
	if len(gaps) == 0 {
		t.Fatal("nothing left to resume; the kill came too late to test anything")
	}
	ResetReferenceCache()
	withWorkers(t, 8, func() {
		_, err = shard.Supervise(shard.SupervisorConfig{
			Chunks:  gaps,
			Workers: 8,
			Clock:   func() int64 { return 0 },
			Spawn:   chaosSpawner(spec, shard.ChaosPlan{}),
			OnFrame: func(f shard.Frame) error {
				if err := m2.Observe(f.Range, f.Partial); err != nil {
					return err
				}
				return jnl2.Append(f)
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl2.Close(); err != nil {
		t.Fatal(err)
	}

	merged, err := m2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, merged) {
		t.Fatalf("resumed run diverged from clean run\nwhole:  %s\nmerged: %s", whole, merged)
	}

	// The finished journal must itself replay to the same bits: a third
	// coordinator resuming a *completed* campaign re-renders it without
	// dispatching anything.
	_, final, _, err := shard.LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	m3 := shard.NewMerger(spec.Jobs, spec.Merge)
	for _, f := range final {
		if err := m3.Observe(f.Range, f.Partial); err != nil {
			t.Fatal(err)
		}
	}
	if missing := m3.Missing(); len(missing) != 0 {
		t.Fatalf("finished journal leaves gaps %v", missing)
	}
	replayed, err := m3.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, replayed) {
		t.Fatal("journal replay of the finished campaign diverged from the clean run")
	}
}
