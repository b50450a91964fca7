package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// FrameVersion is the wire version of the partial-aggregate frame format.
const FrameVersion = 1

// Frame is one streamed partial aggregate: the mergeable reduction of one
// dispatched chunk of the job space, emitted as a single JSON line on the
// worker's stdout. Workers emit a frame per chunk and then forget the
// chunk, so neither side of the pipe retains per-trial state. Frames and
// journals written by older versions also carry "shard"/"shards" keys;
// decoding ignores them.
type Frame struct {
	V        int             `json:"v"`
	Campaign string          `json:"campaign"`
	Range    Range           `json:"range"`
	Partial  json.RawMessage `json:"partial"`
}

// ErrTruncatedTail reports a frame stream that ends mid-line: the worker
// died between starting and finishing a frame write. The bytes of the
// partial line are dropped; the chunk they would have covered is simply
// not covered, which coverage tracking (Merger.Missing, the supervisor's
// chunk table) turns into a re-dispatch rather than a campaign abort.
var ErrTruncatedTail = errors.New("shard: frame stream ends mid-line (worker died mid-write)")

// WriteFrame emits one frame as a JSON line.
func WriteFrame(w io.Writer, f Frame) error {
	if f.V == 0 {
		f.V = FrameVersion
	}
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("shard: encode frame: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("shard: write frame: %w", err)
	}
	return nil
}

// decodeFrame decodes one newline-stripped frame line, checking the wire
// version.
func decodeFrame(line []byte) (Frame, error) {
	var f Frame
	if err := json.Unmarshal(line, &f); err != nil {
		return Frame{}, fmt.Errorf("shard: bad frame %q: %w", truncate(string(line), 120), err)
	}
	if f.V != FrameVersion {
		return Frame{}, fmt.Errorf("shard: frame version %d, want %d", f.V, FrameVersion)
	}
	return f, nil
}

// ReadFrames decodes line-delimited frames from r, calling fn for each.
// Blank lines are skipped; a newline-terminated line that is not a frame
// is an error (a worker's stdout must carry frames only). A partial
// trailing line that fails to decode means the writer died mid-frame:
// ReadFrames returns ErrTruncatedTail, after having delivered every
// complete frame before it — callers treat the lost chunk as uncovered
// (to be re-dispatched or reported missing), not as a fatal stream error.
func ReadFrames(r io.Reader, fn func(Frame) error) error {
	br := bufio.NewReaderSize(r, 64*1024)
	for {
		line, rerr := br.ReadBytes('\n')
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			f, derr := decodeFrame(trimmed)
			if derr != nil {
				if rerr != nil {
					// The stream ended inside this line: a dying worker's
					// half-written frame, not coordinator-fatal garbage.
					return fmt.Errorf("%w: dropped %d trailing bytes", ErrTruncatedTail, len(line))
				}
				return derr
			}
			if err := fn(f); err != nil {
				return err
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
