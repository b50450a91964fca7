package shard

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
)

// ExecSpawner adapts argv-built worker processes to the supervisor's
// Spawn hook. Each incarnation runs argv(slot, inc) with a dispatch pipe
// on stdin (one "lo:hi:attempt" line per chunk), a frame stream on
// stdout, and stderr passed through. The stdout reader tolerates the
// failure shapes a dying worker produces: a truncated trailing line is
// dropped (the chunk is simply not covered), a newline-terminated
// non-frame line raises EventGarbage, and process death ends with an
// EventExit carrying the exit code or fatal signal plus rusage
// accounting.
func ExecSpawner(argv func(slot, inc int) []string) func(slot, inc int, ev chan<- WorkerEvent) (Worker, error) {
	return func(slot, inc int, ev chan<- WorkerEvent) (Worker, error) {
		args := argv(slot, inc)
		if len(args) == 0 {
			return nil, fmt.Errorf("shard: empty argv for worker slot %d", slot)
		}
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("shard: start worker slot %d: %w", slot, err)
		}
		w := &procWorker{slot: slot, inc: inc, cmd: cmd, stdin: stdin, ev: ev}
		go w.read(stdout)
		return w, nil
	}
}

// procWorker is one supervised worker process.
type procWorker struct {
	slot, inc int
	cmd       *exec.Cmd
	ev        chan<- WorkerEvent

	mu     sync.Mutex
	stdin  io.WriteCloser
	closed bool
}

// Dispatch writes one job line. Failing means the process side of the
// pipe is gone; the supervisor treats the worker as dying and waits for
// its exit event.
func (w *procWorker) Dispatch(r Range, attempt int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("shard: worker %d/inc %d: stdin closed", w.slot, w.inc)
	}
	_, err := fmt.Fprintf(w.stdin, "%d:%d:%d\n", r.Lo, r.Hi, attempt)
	return err
}

// Close ends the dispatch stream; an idle worker exits cleanly on EOF.
func (w *procWorker) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.closed = true
		_ = w.stdin.Close()
	}
}

// Term sends SIGTERM (and closes stdin, so a worker that finishes its
// current chunk also sees end-of-work).
func (w *procWorker) Term() {
	w.Close()
	if p := w.cmd.Process; p != nil {
		_ = p.Signal(syscall.SIGTERM)
	}
}

// Kill sends SIGKILL.
func (w *procWorker) Kill() {
	w.Close()
	if p := w.cmd.Process; p != nil {
		_ = p.Kill()
	}
}

// read streams stdout into events, then reaps the process. It always
// ends with exactly one EventExit.
func (w *procWorker) read(out io.Reader) {
	br := bufio.NewReaderSize(out, 64*1024)
	var poisoned error
	for poisoned == nil {
		line, rerr := br.ReadBytes('\n')
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			f, derr := decodeFrame(trimmed)
			switch {
			case derr == nil:
				w.ev <- WorkerEvent{Slot: w.slot, Inc: w.inc, Kind: EventFrame, Frame: f}
			case rerr != nil:
				// Truncated tail: the worker died mid-frame. Drop the
				// partial line; the chunk stays uncovered and is
				// re-dispatched.
			default:
				poisoned = derr
				w.ev <- WorkerEvent{Slot: w.slot, Inc: w.inc, Kind: EventGarbage, Err: derr}
			}
		}
		if rerr != nil {
			break
		}
	}
	if poisoned != nil {
		// The stream is untrusted; drain until the kill lands so the
		// worker cannot block on a full pipe.
		_, _ = io.Copy(io.Discard, br)
	}

	werr := w.cmd.Wait()
	ev := WorkerEvent{Slot: w.slot, Inc: w.inc, Kind: EventExit}
	if werr != nil {
		ev.Err = fmt.Errorf("%s: %w", exitDescription(w.cmd.ProcessState), werr)
	}
	if ps := w.cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			ev.RSSBytes = int64(ru.Maxrss) * 1024 // Linux: kilobytes
		}
		ev.CPUSeconds = ps.UserTime().Seconds() + ps.SystemTime().Seconds()
	}
	w.ev <- ev
}

// exitDescription renders a worker's exit status for error context: the
// exit code, or the signal that killed it.
func exitDescription(ps *os.ProcessState) string {
	if ps == nil {
		return "no exit status"
	}
	if ws, ok := ps.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
		return fmt.Sprintf("killed by signal %s", ws.Signal())
	}
	return fmt.Sprintf("exit code %d", ps.ExitCode())
}
