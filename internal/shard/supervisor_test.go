package shard

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// scriptedWorker is an in-process Worker whose per-dispatch behaviour is
// a test-provided function. Events are delivered synchronously into the
// supervisor's buffered channel, which keeps the failure schedules
// deterministic without real processes or sleeps.
type scriptedWorker struct {
	slot, inc int
	ev        chan<- WorkerEvent
	behave    func(w *scriptedWorker, r Range, attempt int)

	mu   sync.Mutex
	dead bool
}

func (w *scriptedWorker) send(ev WorkerEvent) {
	ev.Slot, ev.Inc = w.slot, w.inc
	w.ev <- ev
}

func (w *scriptedWorker) frame(r Range) {
	p, _ := json.Marshal(sumOver(r))
	w.send(WorkerEvent{Kind: EventFrame, Frame: Frame{
		V: FrameVersion, Campaign: "toy", Range: r, Partial: p,
	}})
}

func (w *scriptedWorker) garbage() {
	w.send(WorkerEvent{Kind: EventGarbage, Err: errors.New("stdout line is not a frame")})
}

// exit delivers the incarnation's final event exactly once.
func (w *scriptedWorker) exit(err error) {
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return
	}
	w.dead = true
	w.mu.Unlock()
	w.send(WorkerEvent{Kind: EventExit, Err: err, RSSBytes: 1 << 20, CPUSeconds: 0.01})
}

func (w *scriptedWorker) Dispatch(r Range, attempt int) error {
	w.mu.Lock()
	dead := w.dead
	w.mu.Unlock()
	if dead {
		return errors.New("dispatch to dead worker")
	}
	w.behave(w, r, attempt)
	return nil
}

func (w *scriptedWorker) Close() { w.exit(nil) }
func (w *scriptedWorker) Term()  { w.exit(errors.New("terminated")) }
func (w *scriptedWorker) Kill()  { w.exit(errors.New("killed")) }

func scriptedSpawner(behave func(w *scriptedWorker, r Range, attempt int)) func(int, int, chan<- WorkerEvent) (Worker, error) {
	return func(slot, inc int, ev chan<- WorkerEvent) (Worker, error) {
		return &scriptedWorker{slot: slot, inc: inc, ev: ev, behave: behave}, nil
	}
}

// sumFrames builds a merger plus the OnFrame hook feeding it.
func sumFrames(jobs int) (*Merger[sumPartial], func(Frame) error) {
	m := NewMerger(jobs, mergeSum)
	return m, func(f Frame) error {
		var p sumPartial
		if err := json.Unmarshal(f.Partial, &p); err != nil {
			return err
		}
		return m.Observe(f.Range, p)
	}
}

func mustResult(t *testing.T, m *Merger[sumPartial], jobs int) {
	t.Helper()
	got, err := m.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := sumOver(Range{0, jobs}); got != want {
		t.Fatalf("merged result %+v, want %+v", got, want)
	}
}

func TestSuperviseHappyPath(t *testing.T) {
	const jobs = 40
	m, onFrame := sumFrames(jobs)
	st, err := Supervise(SupervisorConfig{
		Chunks:  Chunks(Range{0, jobs}, 4),
		Workers: 3,
		Clock:   func() int64 { return 0 },
		Spawn:   scriptedSpawner(func(w *scriptedWorker, r Range, _ int) { w.frame(r) }),
		OnFrame: onFrame,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustResult(t, m, jobs)
	if st.Frames != 10 || st.Retries != 0 || st.Respawns != 0 {
		t.Fatalf("stats = %+v, want 10 clean frames", st)
	}
	if st.Recovered() {
		t.Fatalf("clean run reported recovery: %+v", st)
	}
	if st.PeakRSSBytes <= 0 || st.TotalCPU <= 0 {
		t.Fatalf("worker usage not aggregated: %+v", st)
	}
}

func TestSuperviseNoWork(t *testing.T) {
	st, err := Supervise(SupervisorConfig{
		Workers: 2,
		Clock:   func() int64 { return 0 },
		Spawn: scriptedSpawner(func(w *scriptedWorker, r Range, _ int) {
			t.Errorf("dispatch on an empty campaign: %v", r)
		}),
		OnFrame: func(Frame) error { return nil },
		Chunks:  []Range{{3, 3}}, // empty ranges are not work
	})
	if err != nil || st.Frames != 0 {
		t.Fatalf("empty campaign: stats %+v, err %v", st, err)
	}
}

func TestSuperviseConfigValidation(t *testing.T) {
	clock := Clock(func() int64 { return 0 })
	spawn := scriptedSpawner(func(w *scriptedWorker, r Range, _ int) { w.frame(r) })
	onFrame := func(Frame) error { return nil }
	for name, cfg := range map[string]SupervisorConfig{
		"no workers":          {Clock: clock, Spawn: spawn, OnFrame: onFrame},
		"no clock":            {Workers: 1, Spawn: spawn, OnFrame: onFrame},
		"no spawn":            {Workers: 1, Clock: clock, OnFrame: onFrame},
		"no onframe":          {Workers: 1, Clock: clock, Spawn: spawn},
		"deadline needs tick": {Workers: 1, Clock: clock, Spawn: spawn, OnFrame: onFrame, Deadline: 1},
		"backoff needs tick":  {Workers: 1, Clock: clock, Spawn: spawn, OnFrame: onFrame, Backoff: 1},
	} {
		if _, err := Supervise(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

// TestSuperviseRecoversFromCrashes pins the tentpole guarantee: worker
// crashes cost the affected chunks a re-dispatch on a respawned worker,
// and the merged result stays bit-identical to a failure-free run.
func TestSuperviseRecoversFromCrashes(t *testing.T) {
	const jobs = 40
	m, onFrame := sumFrames(jobs)
	st, err := Supervise(SupervisorConfig{
		Chunks:      Chunks(Range{0, jobs}, 4),
		Workers:     2,
		MaxAttempts: 3,
		Clock:       func() int64 { return 0 },
		Spawn: scriptedSpawner(func(w *scriptedWorker, r Range, attempt int) {
			if attempt == 0 && r.Lo%8 == 0 {
				w.exit(errors.New("exit code 3"))
				return
			}
			w.frame(r)
		}),
		OnFrame: onFrame,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustResult(t, m, jobs)
	if st.Retries != 5 || st.Respawns != 5 {
		t.Fatalf("stats = %+v, want 5 retries and 5 respawns", st)
	}
	if !st.Recovered() {
		t.Fatalf("crashy run reported no recovery: %+v", st)
	}
}

func TestSuperviseKillsPoisonedWorkers(t *testing.T) {
	const jobs = 24
	m, onFrame := sumFrames(jobs)
	st, err := Supervise(SupervisorConfig{
		Chunks:  Chunks(Range{0, jobs}, 4),
		Workers: 2,
		Clock:   func() int64 { return 0 },
		Spawn: scriptedSpawner(func(w *scriptedWorker, r Range, attempt int) {
			if attempt == 0 && r.Lo == 12 {
				w.garbage()
				return
			}
			w.frame(r)
		}),
		OnFrame: onFrame,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustResult(t, m, jobs)
	if st.Garbage != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v, want 1 garbage event and 1 retry", st)
	}
}

func TestSupervisePoisonsUndispatchedRangeFrames(t *testing.T) {
	const jobs = 16
	m, onFrame := sumFrames(jobs)
	st, err := Supervise(SupervisorConfig{
		Chunks:  Chunks(Range{0, jobs}, 4),
		Workers: 1,
		Clock:   func() int64 { return 0 },
		Spawn: scriptedSpawner(func(w *scriptedWorker, r Range, attempt int) {
			if attempt == 0 && r.Lo == 0 {
				// A frame for a range the coordinator never dispatched:
				// protocol breach, the worker must not be trusted.
				w.frame(Range{1, 3})
				return
			}
			w.frame(r)
		}),
		OnFrame: onFrame,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustResult(t, m, jobs)
	if st.Retries < 1 {
		t.Fatalf("stats = %+v, want the breached chunk re-dispatched", st)
	}
}

func TestSuperviseDropsDuplicateFrames(t *testing.T) {
	const jobs = 20
	m, onFrame := sumFrames(jobs)
	st, err := Supervise(SupervisorConfig{
		Chunks:  Chunks(Range{0, jobs}, 4),
		Workers: 2,
		Clock:   func() int64 { return 0 },
		Spawn: scriptedSpawner(func(w *scriptedWorker, r Range, _ int) {
			w.frame(r)
			if r.Lo == 4 {
				w.frame(r) // a retried worker re-emitting its chunk
			}
		}),
		OnFrame: onFrame,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustResult(t, m, jobs)
	if st.Frames != 5 || st.DupFrames != 1 {
		t.Fatalf("stats = %+v, want 5 novel + 1 duplicate frame", st)
	}
}

// TestSuperviseAbortsDeterministicFailure pins the transient-vs-
// deterministic distinction: a chunk that fails on every fresh worker is
// a bug in the experiment, and the campaign must abort with an error
// naming the job range instead of retrying forever.
func TestSuperviseAbortsDeterministicFailure(t *testing.T) {
	const jobs = 16
	_, onFrame := sumFrames(jobs)
	_, err := Supervise(SupervisorConfig{
		Chunks:      Chunks(Range{0, jobs}, 4),
		Workers:     2,
		MaxAttempts: 3,
		Clock:       func() int64 { return 0 },
		Spawn: scriptedSpawner(func(w *scriptedWorker, r Range, _ int) {
			if r.Lo == 8 {
				w.exit(errors.New("segmentation fault"))
				return
			}
			w.frame(r)
		}),
		OnFrame: onFrame,
		Logf:    t.Logf,
	})
	if !errors.Is(err, ErrChunkFailed) {
		t.Fatalf("err = %v, want ErrChunkFailed", err)
	}
	for _, frag := range []string{"8:12", "3 times", "segmentation fault"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
}

func TestSuperviseAbortsOnRepeatedSpawnFailure(t *testing.T) {
	boom := errors.New("fork: resource temporarily unavailable")
	_, err := Supervise(SupervisorConfig{
		Chunks:      Chunks(Range{0, 8}, 4),
		Workers:     1,
		MaxAttempts: 3,
		Clock:       func() int64 { return 0 },
		Spawn: func(slot, inc int, ev chan<- WorkerEvent) (Worker, error) {
			return nil, boom
		},
		OnFrame: func(Frame) error { return nil },
		Logf:    t.Logf,
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the spawn failure", err)
	}
}

func TestSuperviseOnFrameErrorAborts(t *testing.T) {
	sentinel := errors.New("downstream merge refused the frame")
	_, err := Supervise(SupervisorConfig{
		Chunks:  Chunks(Range{0, 8}, 4),
		Workers: 1,
		Clock:   func() int64 { return 0 },
		Spawn:   scriptedSpawner(func(w *scriptedWorker, r Range, _ int) { w.frame(r) }),
		OnFrame: func(Frame) error { return sentinel },
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the OnFrame error", err)
	}
}

func TestBackoffSchedule(t *testing.T) {
	s := &supervisor{cfg: SupervisorConfig{Backoff: 100, BackoffCap: 800}}
	want := []int64{100, 200, 400, 800, 800, 800}
	for i, w := range want {
		if got := s.backoffFor(i + 1); got != w {
			t.Fatalf("backoffFor(%d) = %d, want %d", i+1, got, w)
		}
	}
	flat := &supervisor{cfg: SupervisorConfig{}}
	if got := flat.backoffFor(3); got != 0 {
		t.Fatalf("backoffFor without Backoff = %d, want 0", got)
	}
}

// tickerChan adapts a real ticker to the supervisor's Tick channel for
// the wall-clock tests below (test-only: the non-test supervisor code
// never touches ambient time).
func tickerChan(t *testing.T, every time.Duration) <-chan struct{} {
	t.Helper()
	tick := make(chan struct{})
	done := make(chan struct{})
	tkr := time.NewTicker(every)
	t.Cleanup(func() { close(done); tkr.Stop() })
	go func() {
		for {
			select {
			case <-tkr.C:
				select {
				case tick <- struct{}{}:
				case <-done:
					return
				}
			case <-done:
				return
			}
		}
	}()
	return tick
}

func wallClock(t *testing.T) Clock {
	t.Helper()
	start := time.Now()
	return func() int64 { return int64(time.Since(start)) }
}

// TestSuperviseStragglerReassigned pins hang recovery: a worker that
// accepts a chunk and never frames is detected by the per-chunk frame
// deadline, killed, and its chunk re-dispatched elsewhere.
func TestSuperviseStragglerReassigned(t *testing.T) {
	const jobs = 24
	m, onFrame := sumFrames(jobs)
	st, err := Supervise(SupervisorConfig{
		Chunks:   Chunks(Range{0, jobs}, 4),
		Workers:  2,
		Clock:    wallClock(t),
		Tick:     tickerChan(t, 2*time.Millisecond),
		Deadline: int64(30 * time.Millisecond),
		Grace:    int64(5 * time.Millisecond),
		Spawn: scriptedSpawner(func(w *scriptedWorker, r Range, attempt int) {
			if attempt == 0 && r.Lo == 8 {
				return // hang: no frame, no exit, until killed
			}
			w.frame(r)
		}),
		OnFrame: onFrame,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustResult(t, m, jobs)
	if st.Stragglers < 1 || st.Retries < 1 {
		t.Fatalf("stats = %+v, want the hung chunk detected and retried", st)
	}
}

// TestSuperviseBackoffDelaysRetry pins that a failed chunk's re-dispatch
// waits out the capped exponential backoff.
func TestSuperviseBackoffDelaysRetry(t *testing.T) {
	const backoff = 20 * time.Millisecond
	var mu sync.Mutex
	var dispatchedAt []time.Duration
	start := time.Now()
	m, onFrame := sumFrames(4)
	_, err := Supervise(SupervisorConfig{
		Chunks:  []Range{{0, 4}},
		Workers: 1,
		Clock:   wallClock(t),
		Tick:    tickerChan(t, 2*time.Millisecond),
		Backoff: int64(backoff),
		Spawn: scriptedSpawner(func(w *scriptedWorker, r Range, attempt int) {
			mu.Lock()
			dispatchedAt = append(dispatchedAt, time.Since(start))
			mu.Unlock()
			if attempt == 0 {
				w.exit(errors.New("transient crash"))
				return
			}
			w.frame(r)
		}),
		OnFrame: onFrame,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustResult(t, m, 4)
	mu.Lock()
	defer mu.Unlock()
	if len(dispatchedAt) != 2 {
		t.Fatalf("dispatches = %v, want exactly 2", dispatchedAt)
	}
	if gap := dispatchedAt[1] - dispatchedAt[0]; gap < backoff {
		t.Fatalf("retry after %v, want at least the %v backoff", gap, backoff)
	}
}

// TestExecSpawnerRunsProcesses drives the supervisor over real worker
// processes speaking the dispatch protocol: /bin/sh loops reading
// "lo:hi:attempt" lines and answering with frame lines, with seeded
// failures (crash, stdout garbage, mid-frame death) on first attempts.
func TestExecSpawnerRunsProcesses(t *testing.T) {
	const jobs = 24
	script := `
while IFS=: read lo hi at; do
  if [ "$at" = "0" ] && [ "$lo" = "4" ]; then exit 3; fi
  if [ "$at" = "0" ] && [ "$lo" = "8" ]; then echo "stdout noise, not a frame"; exit 0; fi
  if [ "$at" = "0" ] && [ "$lo" = "12" ]; then printf '{"v":1,"campaign":"toy","ra'; exit 0; fi
  echo "{\"v\":1,\"campaign\":\"toy\",\"shard\":0,\"shards\":1,\"range\":{\"lo\":$lo,\"hi\":$hi},\"partial\":{\"Sum\":1}}"
done
`
	m := NewMerger(jobs, mergeSum)
	st, err := Supervise(SupervisorConfig{
		Chunks:  Chunks(Range{0, jobs}, 4),
		Workers: 2,
		Clock:   func() int64 { return 0 },
		Spawn: ExecSpawner(func(slot, inc int) []string {
			return []string{"/bin/sh", "-c", script}
		}),
		OnFrame: func(f Frame) error {
			var p sumPartial
			if err := json.Unmarshal(f.Partial, &p); err != nil {
				return err
			}
			return m.Observe(f.Range, p)
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Covered() != jobs {
		t.Fatalf("covered %d of %d jobs; missing %v", m.Covered(), jobs, m.Missing())
	}
	got, err := m.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got.Sum != 6 { // six chunks, Sum:1 each
		t.Fatalf("merged sum = %d, want 6", got.Sum)
	}
	if st.Retries < 3 || st.Garbage < 1 {
		t.Fatalf("stats = %+v, want crash+garbage+truncation each retried", st)
	}
	if st.PeakRSSBytes <= 0 {
		t.Fatalf("process usage not accounted: %+v", st)
	}
}
