// The coordinator journal: a versioned, append-only file of frame lines
// that makes a campaign's coordinator restartable. Every accepted chunk
// partial is appended and periodically fsync'd; a killed coordinator
// resumes by replaying the journal into a fresh Merger, compacting the
// file down to the coalesced covered ranges, and dispatching only the
// uncovered gaps. Because chunk partials are deterministic, anything the
// journal lost (unsynced tail, a line truncated mid-write by the kill)
// costs only that chunk's re-execution — never correctness.
package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// JournalVersion is the journal file-format version.
const JournalVersion = 1

// journalMagic identifies the header line.
const journalMagic = "ravenguard-campaign-journal"

// JournalHeader is the first line of a journal: what campaign the frames
// belong to and how it was sized, so a resume with mismatched flags is
// rejected instead of silently merging incompatible partials.
type JournalHeader struct {
	V        int    `json:"v"`
	Journal  string `json:"journal"`
	Campaign string `json:"campaign"`
	Jobs     int    `json:"jobs"`
	// Config is an opaque digest of every flag that shapes the job-index
	// space and per-job work (seed, sizing overrides); it must match
	// exactly on resume.
	Config string `json:"config,omitempty"`
}

// Journal is an open, appendable campaign journal.
type Journal struct {
	f       *os.File
	w       *bufio.Writer
	pending int
	// FlushEvery bounds how many appended frames may sit unsynced; every
	// FlushEvery-th append flushes and fsyncs. 1 syncs every frame.
	FlushEvery int
}

// ErrJournalExists reports a refused overwrite of an existing journal.
var ErrJournalExists = errors.New("shard: journal already exists (resume it, or remove it for a fresh run)")

// CreateJournal starts a fresh journal at path, writing and syncing the
// header. It refuses to clobber an existing file — hours of covered
// ranges should never vanish because a -resume flag was forgotten.
func CreateJournal(path string, h JournalHeader, flushEvery int) (*Journal, error) {
	data, err := headerLine(h)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrJournalExists, path)
		}
		return nil, err
	}
	j := &Journal{f: f, w: bufio.NewWriter(f), FlushEvery: flushEvery}
	if _, err := j.w.Write(data); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// headerLine encodes a journal's header line, stamped with the format
// version and magic.
func headerLine(h JournalHeader) ([]byte, error) {
	h.V = JournalVersion
	h.Journal = journalMagic
	data, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("shard: encode journal header: %w", err)
	}
	return append(data, '\n'), nil
}

// Append records one accepted frame as a frame line (WriteFrame), fsyncing
// every FlushEvery frames.
func (j *Journal) Append(f Frame) error {
	if err := WriteFrame(j.w, f); err != nil {
		return err
	}
	j.pending++
	if j.FlushEvery > 0 && j.pending >= j.FlushEvery {
		return j.Sync()
	}
	return nil
}

// Sync flushes buffered frames and fsyncs the file.
func (j *Journal) Sync() error {
	j.pending = 0
	if err := j.w.Flush(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	serr := j.Sync()
	cerr := j.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// LoadJournal reads a journal written by a previous (possibly killed)
// coordinator: the header, then every decodable frame line. truncated
// reports whether the file ended mid-line — the shape a kill leaves —
// in which case the partial tail is dropped and its chunk resurfaces as
// an uncovered range.
func LoadJournal(path string) (h JournalHeader, frames []Frame, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return JournalHeader{}, nil, false, err
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 64*1024)
	header, rerr := br.ReadBytes('\n')
	if rerr != nil && rerr != io.EOF {
		return JournalHeader{}, nil, false, rerr
	}
	if jerr := json.Unmarshal(bytes.TrimSpace(header), &h); jerr != nil || h.Journal != journalMagic {
		return JournalHeader{}, nil, false, fmt.Errorf("shard: %s is not a campaign journal", path)
	}
	if h.V != JournalVersion {
		return JournalHeader{}, nil, false, fmt.Errorf("shard: journal version %d, want %d", h.V, JournalVersion)
	}
	if rerr == io.EOF {
		return h, nil, false, nil
	}

	err = ReadFrames(br, func(f Frame) error {
		frames = append(frames, f)
		return nil
	})
	if errors.Is(err, ErrTruncatedTail) {
		return h, frames, true, nil
	}
	if err != nil {
		return JournalHeader{}, nil, false, fmt.Errorf("shard: journal %s: %w", path, err)
	}
	return h, frames, false, nil
}

// CompactJournal atomically rewrites path as header + the given frames
// (a resuming coordinator passes its Merger's coalesced Parts), syncs
// it, and reopens it for appending. The rename keeps a window-free
// guarantee: at every instant the path holds either the old journal or
// the complete compacted one.
func CompactJournal(path string, h JournalHeader, frames []Frame, flushEvery int) (*Journal, error) {
	tmp := path + ".compact"
	if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	j, err := CreateJournal(tmp, h, flushEvery)
	if err != nil {
		return nil, err
	}
	for _, f := range frames {
		if err := j.Append(f); err != nil {
			j.f.Close()
			return nil, err
		}
	}
	if err := j.Sync(); err != nil {
		j.f.Close()
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		j.f.Close()
		return nil, err
	}
	// Fsync the directory so the rename itself is durable.
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return j, nil
}
