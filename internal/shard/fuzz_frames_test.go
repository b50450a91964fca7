package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// A worker's stdout and a killed coordinator's journal are untrusted
// input to the coordinator. These targets feed ReadFrames and LoadJournal
// arbitrary bytes, seeded from WriteFrame and CreateJournal/Append output
// (whole, torn mid-line, and with garbage). Each checks three things: no
// panic; the accepted frames re-encode to bytes that read back to frames
// re-encoding to those same bytes; and a torn tail is reported only after
// every complete frame before it was delivered.

// fuzzFrames are the seed frames: a plain partial, an empty one, and one
// with escapes in both the campaign name and the partial.
func fuzzFrames() []Frame {
	return []Frame{
		{Campaign: "table4", Range: Range{Lo: 0, Hi: 256}, Partial: json.RawMessage(`{"n":3,"sum":[1,2.5]}`)},
		{Campaign: "table4", Range: Range{Lo: 256, Hi: 300}, Partial: json.RawMessage(`null`)},
		{Campaign: "<fig9> é", Range: Range{Lo: -1, Hi: 7}, Partial: json.RawMessage(`{"s":"a\nb"}`)},
	}
}

// encodeFrames writes frames with WriteFrame, one line each.
func encodeFrames(t testing.TB, frames []Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("re-encode %+v: %v", f, err)
		}
	}
	return buf.Bytes()
}

// readAllFrames collects every frame ReadFrames delivers from b.
func readAllFrames(b []byte) ([]Frame, error) {
	var frames []Frame
	err := ReadFrames(bytes.NewReader(b), func(f Frame) error {
		frames = append(frames, f)
		return nil
	})
	return frames, err
}

// frameLines counts b's non-blank lines as ReadFrames splits them: the
// newline-terminated ones, and whether a non-blank line trails unterminated.
func frameLines(b []byte) (complete int, tail bool) {
	lines := bytes.Split(b, []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		if len(bytes.TrimSpace(l)) > 0 {
			complete++
		}
	}
	return complete, len(bytes.TrimSpace(lines[len(lines)-1])) > 0
}

// requireFramesCover checks what a read of b delivered against b's lines:
// a torn tail only after every complete line was delivered as a frame, and
// every non-blank line delivered when the read succeeded.
func requireFramesCover(t *testing.T, b []byte, delivered int, torn bool) {
	t.Helper()
	complete, tail := frameLines(b)
	switch {
	case torn && (!tail || delivered != complete):
		t.Fatalf("torn tail after %d frames; the stream has %d complete lines (unterminated tail: %v)", delivered, complete, tail)
	case !torn && tail && delivered != complete+1, !torn && !tail && delivered != complete:
		t.Fatalf("read delivered %d frames; the stream has %d complete lines (unterminated tail: %v)", delivered, complete, tail)
	}
}

// tornAt returns canon cut inside its last line, and without only its
// final newline.
func tornAt(canon []byte) (midLine, noNewline []byte) {
	start := bytes.LastIndexByte(canon[:len(canon)-1], '\n') + 1
	return canon[:(start+len(canon))/2], canon[:len(canon)-1]
}

func FuzzReadFrames(f *testing.F) {
	canon := encodeFrames(f, fuzzFrames())
	if frames, err := readAllFrames(canon); err != nil || !bytes.Equal(encodeFrames(f, frames), canon) {
		f.Fatalf("WriteFrame output does not re-encode to its own bytes: %v", err)
	}
	mid, _ := tornAt(canon)
	f.Add(canon)
	f.Add(mid)
	f.Add(append([]byte("\n  \r\n"), canon...))
	f.Add(append(append([]byte{}, canon...), "not a frame\n"...))
	f.Add([]byte(`{"v":2,"campaign":"x"}` + "\n"))
	f.Add([]byte(`{"v":1,"V":1,"partial":  [ 1 , 2 ]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := readAllFrames(data)
		torn := errors.Is(err, ErrTruncatedTail)
		if err != nil && !torn {
			return
		}
		requireFramesCover(t, data, len(frames), torn)
		if len(frames) == 0 {
			return
		}

		canon := encodeFrames(t, frames)
		again, err := readAllFrames(canon)
		if err != nil || len(again) != len(frames) {
			t.Fatalf("re-encoded %d frames read back as %d: %v", len(frames), len(again), err)
		}
		if enc := encodeFrames(t, again); !bytes.Equal(enc, canon) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", canon, enc)
		}

		mid, noNewline := tornAt(canon)
		got, err := readAllFrames(mid)
		if !errors.Is(err, ErrTruncatedTail) || len(got) != len(frames)-1 {
			t.Fatalf("cut inside its last line, %d frames read as %d, %v; want %d and ErrTruncatedTail", len(frames), len(got), err, len(frames)-1)
		}
		if got, err := readAllFrames(noNewline); err != nil || len(got) != len(frames) {
			t.Fatalf("without its final newline, %d frames read as %d, %v", len(frames), len(got), err)
		}
	})
}

// fuzzHeader is the seed journal's header.
var fuzzHeader = JournalHeader{Campaign: "table4", Jobs: 300, Config: "seed=1"}

// createJournal writes header h and frames to a fresh journal under dir
// with CreateJournal and Append, and returns its bytes.
func createJournal(t testing.TB, dir string, h JournalHeader, frames []Frame) []byte {
	t.Helper()
	path := filepath.Join(dir, "canon.journal")
	j, err := CreateJournal(path, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := j.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeJournal encodes header h and frames as CreateJournal and Append
// write them, without the file and its fsyncs.
func encodeJournal(t *testing.T, h JournalHeader, frames []Frame) []byte {
	t.Helper()
	header, err := headerLine(h)
	if err != nil {
		t.Fatalf("re-encode %+v: %v", h, err)
	}
	return append(header, encodeFrames(t, frames)...)
}

// loadJournalBytes writes b to a file under dir and loads it as a journal.
func loadJournalBytes(t *testing.T, dir string, b []byte) (JournalHeader, []Frame, bool, error) {
	t.Helper()
	path := filepath.Join(dir, "in.journal")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadJournal(path)
}

func FuzzLoadJournal(f *testing.F) {
	dir := f.TempDir()
	canon := createJournal(f, dir, fuzzHeader, fuzzFrames())
	path := filepath.Join(dir, "seed.journal")
	if err := os.WriteFile(path, canon, 0o644); err != nil {
		f.Fatal(err)
	}
	if h, frames, _, err := LoadJournal(path); err != nil || !bytes.Equal(createJournal(f, dir, h, frames), canon) {
		f.Fatalf("CreateJournal/Append output does not re-encode to its own bytes: %v", err)
	}
	mid, _ := tornAt(canon)
	header, _, _ := bytes.Cut(canon, []byte("\n"))
	f.Add(canon)
	f.Add(mid)
	f.Add(header)
	f.Add(append(append([]byte{}, canon...), "{\"v\":1\n"...))
	f.Add([]byte(`{"v":1,"journal":"not-a-journal"}` + "\n"))
	f.Add([]byte(`{"v":3,"journal":"ravenguard-campaign-journal"}` + "\n"))

	// Inputs run one at a time in each fuzzing process, so they share one
	// input file under the process's temp dir.
	f.Fuzz(func(t *testing.T, data []byte) {
		h, frames, truncated, err := loadJournalBytes(t, dir, data)
		if err != nil {
			return
		}
		_, body, _ := bytes.Cut(data, []byte("\n"))
		requireFramesCover(t, body, len(frames), truncated)

		canon := encodeJournal(t, h, frames)
		h2, again, truncated, err := loadJournalBytes(t, dir, canon)
		if err != nil || truncated || h2 != h || len(again) != len(frames) {
			t.Fatalf("re-encoded journal (%+v, %d frames) read back as (%+v, %d frames), truncated %v, %v",
				h, len(frames), h2, len(again), truncated, err)
		}
		if enc := encodeJournal(t, h2, again); !bytes.Equal(enc, canon) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", canon, enc)
		}
		if len(frames) == 0 {
			return
		}

		mid, noNewline := tornAt(canon)
		_, got, truncated, err := loadJournalBytes(t, dir, mid)
		if err != nil || !truncated || len(got) != len(frames)-1 {
			t.Fatalf("cut inside its last line, %d frames loaded as %d, truncated %v, %v; want %d, truncated",
				len(frames), len(got), truncated, err, len(frames)-1)
		}
		if _, got, truncated, err := loadJournalBytes(t, dir, noNewline); err != nil || truncated || len(got) != len(frames) {
			t.Fatalf("without its final newline, %d frames loaded as %d, truncated %v, %v", len(frames), len(got), truncated, err)
		}
	})
}
