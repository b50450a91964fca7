// The supervision layer: a chunk-granular dispatcher that makes
// campaigns survive worker crashes, hangs, poisoned streams, and (with a
// Journal) coordinator restarts — while staying bit-identical to a clean
// in-process run. The recovery argument is the same determinism contract
// the merge layer rests on: a chunk's partial aggregate is a pure
// function of its job range, so lost chunks can be re-run anywhere, and
// duplicate frames from retried workers carry no new information and are
// dropped by coverage.
package shard

import (
	"errors"
	"fmt"
)

// Clock returns a monotonic timestamp in nanoseconds — the injectable
// sim.Clock discipline applied to the control plane. The supervisor
// never reads the wall clock itself: production passes sim.WallClock,
// tests pass a scripted clock, and the determinism analyzer keeps this
// package free of ambient time.
type Clock func() int64

// WorkerEventKind tags a supervised worker's lifecycle events.
type WorkerEventKind int

// Worker event kinds.
const (
	// EventFrame delivers one decoded partial-aggregate frame.
	EventFrame WorkerEventKind = iota + 1
	// EventGarbage reports an undecodable (newline-terminated) line on
	// the worker's stdout: the stream can no longer be trusted to frame
	// correctly, so the supervisor kills the worker and re-dispatches its
	// outstanding chunk.
	EventGarbage
	// EventExit reports that the worker terminated; Err is nil for a
	// clean exit after end-of-work, and carries exit context otherwise.
	// It is always the last event a worker incarnation emits.
	EventExit
)

// WorkerEvent is one event from a supervised worker incarnation.
type WorkerEvent struct {
	Slot int // worker slot [0, Workers)
	Inc  int // incarnation id, unique across respawns
	Kind WorkerEventKind

	Frame Frame // EventFrame
	Err   error // EventGarbage: decode error; EventExit: exit context

	// Exit resource accounting (EventExit, real processes only).
	RSSBytes   int64
	CPUSeconds float64
}

// Worker is one supervised worker incarnation. Implementations deliver
// WorkerEvents to the channel handed to their Spawn function, ending
// with exactly one EventExit.
type Worker interface {
	// Dispatch asks the worker to run one chunk; attempt is the chunk's
	// retry ordinal (0 = first try).
	Dispatch(r Range, attempt int) error
	// Close tells the worker no more work is coming (graceful shutdown:
	// close stdin); an idle worker must then exit cleanly.
	Close()
	// Term asks the worker to stop now (SIGTERM for processes).
	Term()
	// Kill forcibly terminates the worker (SIGKILL).
	Kill()
}

// SupervisorStats counts what the supervision layer absorbed.
type SupervisorStats struct {
	Frames     int // novel frames accepted
	DupFrames  int // duplicate frames dropped by coverage
	Garbage    int // poisoned-stream events
	Retries    int // chunk re-dispatches after a failure
	Respawns   int // worker incarnations beyond the initial set
	Stragglers int // workers killed for missing a chunk deadline

	// Worker resource usage, aggregated across incarnations.
	PeakRSSBytes int64
	TotalCPU     float64
}

// Recovered reports whether the supervision layer absorbed any failure.
func (st SupervisorStats) Recovered() bool {
	return st.DupFrames > 0 || st.Garbage > 0 || st.Retries > 0 ||
		st.Respawns > 0 || st.Stragglers > 0
}

// SupervisorConfig configures Supervise.
type SupervisorConfig struct {
	// Chunks is the work list: the job ranges to cover. On a fresh run
	// this is Chunks(Range{0, jobs}, chunkSize); on a resume it is the
	// journal's uncovered gaps, re-chunked.
	Chunks []Range
	// Workers is the number of worker slots to keep filled.
	Workers int
	// MaxAttempts is how many times one chunk may be dispatched before
	// its failure is declared deterministic and the campaign aborts with
	// an error naming the job range (0 means 4).
	MaxAttempts int
	// Clock is the time source for deadlines and backoff (required).
	Clock Clock
	// Tick delivers periodic wakeups for deadline/backoff polling. It is
	// required when Deadline or Backoff is set: without it the supervisor
	// only acts on worker events and could wait forever on a hung worker.
	Tick <-chan struct{}
	// Deadline is the per-chunk frame-arrival budget in Clock units; a
	// dispatched chunk older than this marks its worker a straggler,
	// which is killed (Term, then Kill after Grace) and its chunk
	// re-dispatched. 0 disables straggler detection.
	Deadline int64
	// Backoff is the base delay in Clock units before a failed chunk is
	// re-dispatched, doubling per attempt up to BackoffCap. 0 retries
	// immediately.
	Backoff    int64
	BackoffCap int64
	// Grace is the Term-to-Kill escalation delay in Clock units for
	// workers that ignore a graceful stop (0 means immediate Kill).
	Grace int64
	// Spawn starts worker incarnation inc in the given slot, delivering
	// its events to ev.
	Spawn func(slot, inc int, ev chan<- WorkerEvent) (Worker, error)
	// OnFrame receives each novel (coverage-advancing) frame, serialized
	// in arrival order. An error aborts the campaign.
	OnFrame func(Frame) error
	// Logf, when non-nil, receives recovery diagnostics (retries,
	// respawns, stragglers) — stderr in the coordinator, test logs in
	// tests.
	Logf func(format string, args ...any)
}

// chunk dispatch states.
const (
	chunkPending = iota
	chunkDispatched
	chunkDone
)

// supChunk is the supervisor's view of one work item.
type supChunk struct {
	r          Range
	state      int
	attempts   int   // dispatches so far
	eligibleAt int64 // backoff gate while pending
	deadlineAt int64 // straggler gate while dispatched
}

// supWorker is one live worker incarnation.
type supWorker struct {
	slot     int
	inc      int
	w        Worker
	chunk    int // index into chunks, -1 when idle
	stopping bool
	killAt   int64
	killed   bool
}

// supSlot tracks one worker slot across incarnations.
type supSlot struct {
	inc       int // current incarnation, -1 while awaiting respawn
	respawnAt int64
	fails     int // consecutive spawn failures
}

type supervisor struct {
	cfg    SupervisorConfig
	events chan WorkerEvent
	chunks []supChunk
	byLo   map[int]int // chunk lookup: Range.Lo -> index (ranges are disjoint)
	slots  []supSlot
	byInc  map[int]*supWorker // event lookup only — never iterated
	live   []*supWorker       // iteration order: spawn order
	nextID int
	done   int
	stats  SupervisorStats

	shuttingDown bool
	fatal        error
}

// ErrChunkFailed wraps a chunk whose failure persisted across the retry
// budget — a deterministic failure, not a transient one.
var ErrChunkFailed = errors.New("shard: chunk failed deterministically")

// Supervise runs the chunk list to completion across respawnable
// workers, returning once every chunk's frame has been accepted (or a
// deterministic failure / OnFrame error aborted the campaign). Worker
// crashes, hangs, truncated frames and garbage output cost only the
// affected chunks' re-execution, never the campaign.
func Supervise(cfg SupervisorConfig) (SupervisorStats, error) {
	if cfg.Workers < 1 {
		return SupervisorStats{}, fmt.Errorf("shard: worker count %d must be >= 1", cfg.Workers)
	}
	if cfg.Clock == nil || cfg.Spawn == nil || cfg.OnFrame == nil {
		return SupervisorStats{}, fmt.Errorf("shard: supervisor needs Clock, Spawn and OnFrame")
	}
	if (cfg.Deadline > 0 || cfg.Backoff > 0) && cfg.Tick == nil {
		return SupervisorStats{}, fmt.Errorf("shard: Deadline/Backoff require a Tick channel to poll them")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = cfg.Backoff * 16
	}

	s := &supervisor{
		cfg:    cfg,
		events: make(chan WorkerEvent, 4*cfg.Workers+16),
		chunks: make([]supChunk, 0, len(cfg.Chunks)),
		byLo:   make(map[int]int, len(cfg.Chunks)),
		slots:  make([]supSlot, cfg.Workers),
		byInc:  make(map[int]*supWorker),
	}
	for _, r := range cfg.Chunks {
		if r.Len() <= 0 {
			continue
		}
		s.byLo[r.Lo] = len(s.chunks)
		s.chunks = append(s.chunks, supChunk{r: r})
	}
	for i := range s.slots {
		s.slots[i].inc = -1
	}

	if len(s.chunks) == 0 {
		return s.stats, nil
	}

	for {
		s.reap()
		if len(s.live) == 0 && (s.fatal != nil || s.done == len(s.chunks)) {
			return s.stats, s.fatal
		}
		if len(s.live) == 0 && s.cfg.Tick == nil {
			// No workers and nothing to wake us: Spawn just failed. Poll
			// events and retry immediately; the consecutive-failure budget
			// in reap bounds this loop.
			select {
			case ev := <-s.events:
				s.handle(ev)
			default:
			}
			continue
		}
		select {
		case ev := <-s.events:
			s.handle(ev)
		case <-s.cfg.Tick:
		}
	}
}

func (s *supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// abort latches the first fatal error and starts a hard shutdown.
func (s *supervisor) abort(err error) {
	if s.fatal == nil {
		s.fatal = err
	}
	s.shuttingDown = true
}

// backoffFor returns the capped exponential re-dispatch delay for a
// chunk's n-th retry (n >= 1).
func (s *supervisor) backoffFor(n int) int64 {
	if s.cfg.Backoff <= 0 {
		return 0
	}
	d := s.cfg.Backoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= s.cfg.BackoffCap {
			return s.cfg.BackoffCap
		}
	}
	if d > s.cfg.BackoffCap {
		d = s.cfg.BackoffCap
	}
	return d
}

// requeue returns a dispatched chunk to the pending pool after a failed
// attempt, or aborts if the chunk has exhausted its budget — at that
// point the failure is deterministic (the same range failed MaxAttempts
// times on fresh workers), and the error names the job range.
func (s *supervisor) requeue(ci int, now int64, cause error) {
	c := &s.chunks[ci]
	if c.state != chunkDispatched {
		return
	}
	if c.attempts >= s.cfg.MaxAttempts {
		s.abort(fmt.Errorf("%w: job range %v failed %d times, last cause: %v",
			ErrChunkFailed, c.r, c.attempts, cause))
		return
	}
	backoff := s.backoffFor(c.attempts)
	c.state = chunkPending
	c.eligibleAt = now + backoff
	s.stats.Retries++
	s.logf("shard: re-dispatching job range %v (attempt %d/%d, backoff %dms): %v",
		c.r, c.attempts, s.cfg.MaxAttempts, backoff/1e6, cause)
}

// releaseChunk detaches a dying worker from its outstanding chunk and
// requeues it.
func (s *supervisor) releaseChunk(ws *supWorker, now int64, cause error) {
	if ws.chunk >= 0 {
		s.requeue(ws.chunk, now, cause)
		ws.chunk = -1
	}
}

// stopWorker initiates a stop: graceful Term first, hard Kill after
// Grace (or immediately without a Tick channel to schedule escalation).
func (s *supervisor) stopWorker(ws *supWorker, now int64, hard bool) {
	if ws.killed {
		return
	}
	if hard || s.cfg.Tick == nil {
		ws.killed = true
		ws.stopping = true
		ws.w.Kill()
		return
	}
	if !ws.stopping {
		ws.stopping = true
		ws.killAt = now + s.cfg.Grace
		ws.w.Term()
	}
}

// dropLive removes an exited worker from the iteration list.
func (s *supervisor) dropLive(ws *supWorker) {
	for i, w := range s.live {
		if w == ws {
			s.live = append(s.live[:i], s.live[i+1:]...)
			return
		}
	}
}

// handle processes one worker event.
func (s *supervisor) handle(ev WorkerEvent) {
	now := s.cfg.Clock()
	ws := s.byInc[ev.Inc]
	switch ev.Kind {
	case EventFrame:
		ci, ok := s.byLo[ev.Frame.Range.Lo]
		if !ok || s.chunks[ci].r != ev.Frame.Range {
			// A frame for a range we never dispatched: protocol breach —
			// treat like garbage from this worker.
			s.logf("shard: worker %d/inc %d: frame for undispatched range %v", ev.Slot, ev.Inc, ev.Frame.Range)
			s.poison(ws, now, fmt.Errorf("frame for undispatched range %v", ev.Frame.Range))
			return
		}
		c := &s.chunks[ci]
		if c.state == chunkDone {
			// A retried chunk completed twice (e.g. a straggler finished
			// right after its replacement was dispatched): coverage says
			// the bits are already merged — drop the duplicate.
			s.stats.DupFrames++
			if ws != nil && ws.chunk == ci {
				ws.chunk = -1
			}
			return
		}
		if s.shuttingDown {
			return
		}
		if err := s.cfg.OnFrame(ev.Frame); err != nil {
			s.abort(fmt.Errorf("shard: observe frame %v: %w", ev.Frame.Range, err))
			return
		}
		c.state = chunkDone
		s.done++
		s.stats.Frames++
		// Idle whichever worker delivered it; a stale incarnation's frame
		// leaves the retry dispatchee running — its duplicate is dropped
		// when it lands.
		if ws != nil && ws.chunk == ci {
			ws.chunk = -1
		}
	case EventGarbage:
		if ws == nil {
			return
		}
		s.stats.Garbage++
		s.logf("shard: worker %d/inc %d: poisoned stdout: %v", ev.Slot, ev.Inc, ev.Err)
		s.poison(ws, now, ev.Err)
	case EventExit:
		if ws == nil {
			return
		}
		delete(s.byInc, ev.Inc)
		s.dropLive(ws)
		if ev.RSSBytes > s.stats.PeakRSSBytes {
			s.stats.PeakRSSBytes = ev.RSSBytes
		}
		s.stats.TotalCPU += ev.CPUSeconds
		cause := ev.Err
		if cause == nil {
			cause = errWorkerExitedEarly
		}
		s.releaseChunk(ws, now, fmt.Errorf("worker %d/inc %d: %w", ev.Slot, ev.Inc, cause))
		slot := &s.slots[ws.slot]
		if slot.inc == ev.Inc {
			slot.inc = -1
			slot.respawnAt = now
			if ev.Err != nil && !ws.stopping {
				s.logf("shard: worker %d/inc %d died: %v", ev.Slot, ev.Inc, ev.Err)
			}
		}
	}
}

var errWorkerExitedEarly = errors.New("worker exited before delivering the chunk's frame")

// poison kills a worker whose output can no longer be trusted and
// requeues its outstanding chunk.
func (s *supervisor) poison(ws *supWorker, now int64, cause error) {
	if ws == nil {
		return
	}
	s.releaseChunk(ws, now, cause)
	s.stopWorker(ws, now, true)
}

// reap advances everything the clock gates: shutdown, straggler
// deadlines, kill escalation, respawns, and dispatching pending chunks
// to idle workers.
func (s *supervisor) reap() {
	now := s.cfg.Clock()

	if s.fatal == nil && s.done == len(s.chunks) {
		s.shuttingDown = true
	}
	if s.shuttingDown {
		for _, ws := range s.live {
			if s.fatal != nil {
				s.stopWorker(ws, now, true)
				continue
			}
			if !ws.stopping {
				// Graceful: end-of-work; idle workers exit on their own.
				ws.stopping = true
				ws.killAt = now + s.cfg.Grace
				ws.w.Close()
				if s.cfg.Tick == nil {
					ws.killed = true
					ws.w.Kill()
				}
			}
		}
	}

	// Straggler detection: dispatched chunks past their frame deadline.
	if s.cfg.Deadline > 0 && !s.shuttingDown {
		for _, ws := range s.live {
			if ws.chunk < 0 || ws.stopping || now < s.chunks[ws.chunk].deadlineAt {
				continue
			}
			s.stats.Stragglers++
			s.logf("shard: worker %d/inc %d hung on job range %v (no frame within %dms); killing and reassigning",
				ws.slot, ws.inc, s.chunks[ws.chunk].r, s.cfg.Deadline/1e6)
			s.releaseChunk(ws, now, fmt.Errorf("no frame within the %dms deadline", s.cfg.Deadline/1e6))
			s.stopWorker(ws, now, false)
		}
	}

	// Term -> Kill escalation for workers that ignored a graceful stop.
	for _, ws := range s.live {
		if ws.stopping && !ws.killed && now >= ws.killAt {
			ws.killed = true
			ws.w.Kill()
		}
	}

	if s.shuttingDown {
		return
	}

	// Respawn empty slots while work remains.
	if s.done < len(s.chunks) {
		for i := range s.slots {
			slot := &s.slots[i]
			if slot.inc != -1 || now < slot.respawnAt {
				continue
			}
			inc := s.nextID
			s.nextID++
			w, err := s.cfg.Spawn(i, inc, s.events)
			if err != nil {
				slot.fails++
				if slot.fails >= s.cfg.MaxAttempts {
					s.abort(fmt.Errorf("shard: spawning worker for slot %d failed %d times: %w", i, slot.fails, err))
					return
				}
				slot.respawnAt = now + s.backoffFor(slot.fails)
				s.logf("shard: spawn worker slot %d: %v (retrying)", i, err)
				continue
			}
			slot.fails = 0
			slot.inc = inc
			if inc >= s.cfg.Workers {
				s.stats.Respawns++
			}
			ws := &supWorker{slot: i, inc: inc, w: w, chunk: -1}
			s.byInc[inc] = ws
			s.live = append(s.live, ws)
		}
	}

	// Dispatch pending, eligible chunks to idle workers.
	for _, ws := range s.live {
		if ws.chunk >= 0 || ws.stopping {
			continue
		}
		ci := s.nextPending(now)
		if ci < 0 {
			break
		}
		c := &s.chunks[ci]
		if err := ws.w.Dispatch(c.r, c.attempts); err != nil {
			// The worker's stdin is gone — it is dead or dying. The chunk
			// stays pending; the exit event recycles the slot.
			s.logf("shard: dispatch %v to worker %d/inc %d: %v", c.r, ws.slot, ws.inc, err)
			s.stopWorker(ws, now, true)
			continue
		}
		c.state = chunkDispatched
		c.attempts++
		c.deadlineAt = now + s.cfg.Deadline
		ws.chunk = ci
	}
}

// nextPending returns the lowest-indexed pending chunk whose backoff has
// expired, or -1.
func (s *supervisor) nextPending(now int64) int {
	for i := range s.chunks {
		c := &s.chunks[i]
		if c.state == chunkPending && now >= c.eligibleAt {
			return i
		}
	}
	return -1
}
