package shard

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func testFrame(r Range) Frame {
	p, _ := json.Marshal(sumOver(r))
	return Frame{V: FrameVersion, Campaign: "toy", Range: r, Partial: p}
}

func testHeader() JournalHeader {
	return JournalHeader{Campaign: "toy", Jobs: 12, Config: "seed=1"}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	j, err := CreateJournal(path, testHeader(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ranges := []Range{{0, 4}, {4, 8}, {8, 12}}
	for _, r := range ranges {
		if err := j.Append(testFrame(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	h, frames, truncated, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("clean journal reported a truncated tail")
	}
	if h.Campaign != "toy" || h.Jobs != 12 || h.Config != "seed=1" || h.V != JournalVersion {
		t.Fatalf("header = %+v", h)
	}
	if len(frames) != len(ranges) {
		t.Fatalf("loaded %d frames, want %d", len(frames), len(ranges))
	}
	m := NewMerger(12, mergeSum)
	for _, f := range frames {
		var p sumPartial
		if err := json.Unmarshal(f.Partial, &p); err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(f.Range, p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := sumOver(Range{0, 12}); got != want {
		t.Fatalf("replayed result %+v, want %+v", got, want)
	}
}

func TestJournalRefusesOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	j, err := CreateJournal(path, testHeader(), 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := CreateJournal(path, testHeader(), 1); !errors.Is(err, ErrJournalExists) {
		t.Fatalf("err = %v, want ErrJournalExists", err)
	}
}

func TestJournalHeaderOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	j, err := CreateJournal(path, testHeader(), 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	h, frames, truncated, err := LoadJournal(path)
	if err != nil || truncated || len(frames) != 0 {
		t.Fatalf("header-only journal: %+v frames=%v truncated=%v err=%v", h, frames, truncated, err)
	}
}

// TestJournalTruncatedTail pins the kill shape: a coordinator murdered
// mid-Append leaves a partial trailing line, which resume must treat as
// "that chunk is uncovered", not as corruption.
func TestJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	j, err := CreateJournal(path, testHeader(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testFrame(Range{0, 4})); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"campaign":"toy","ra`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, frames, truncated, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("mid-line tail not reported as truncated")
	}
	if len(frames) != 1 || frames[0].Range != (Range{0, 4}) {
		t.Fatalf("frames = %+v, want the one complete frame", frames)
	}
}

func TestLoadJournalRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	notJournal := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(notJournal, []byte("just some text\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadJournal(notJournal); err == nil {
		t.Fatal("non-journal file accepted")
	}

	wrongVersion := filepath.Join(dir, "old.journal")
	line := `{"v":99,"journal":"` + journalMagic + `","campaign":"toy","jobs":1}` + "\n"
	if err := os.WriteFile(wrongVersion, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadJournal(wrongVersion); err == nil {
		t.Fatal("wrong journal version accepted")
	}
}

// TestCompactJournal pins the resume-time rewrite: the journal shrinks to
// the coalesced covered parts, stays appendable, and the rewrite is
// atomic (the temp file never lingers).
func TestCompactJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	j, err := CreateJournal(path, testHeader(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Range{{0, 4}, {4, 8}, {8, 12}, {0, 4}} { // one duplicate
		if err := j.Append(testFrame(r)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	_, frames, _, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMerger(12, mergeSum)
	for _, f := range frames {
		var p sumPartial
		if err := json.Unmarshal(f.Partial, &p); err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(f.Range, p); err != nil {
			t.Fatal(err)
		}
	}
	if m.Dropped() != 1 {
		t.Fatalf("replay dropped %d duplicates, want 1", m.Dropped())
	}
	var compacted []Frame
	for _, pt := range m.Parts() {
		p, _ := json.Marshal(pt.Partial)
		compacted = append(compacted, Frame{Campaign: "toy", Range: pt.Range, Partial: p})
	}

	j2, err := CompactJournal(path, testHeader(), compacted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(testFrame(Range{4, 8})); err != nil { // post-compaction append works
		t.Fatal(err)
	}
	j2.Close()

	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("compaction temp file left behind: %v", err)
	}
	h, got, truncated, err := LoadJournal(path)
	if err != nil || truncated {
		t.Fatalf("reload: truncated=%v err=%v", truncated, err)
	}
	if h.Campaign != "toy" {
		t.Fatalf("header = %+v", h)
	}
	// One coalesced part (the 4 appends covered [0,12) contiguously) plus
	// the post-compaction append.
	if len(got) != 2 || got[0].Range != (Range{0, 12}) || got[1].Range != (Range{4, 8}) {
		t.Fatalf("compacted frames = %+v", got)
	}
}

// TestJournalResumesOverLegacyFrames pins that a journal written before
// Frame lost its Shard/Shards fields still resumes: its frames load with
// the old keys ignored, replay into a merger, compact, and leave exactly
// the unjournaled range to run.
func TestJournalResumesOverLegacyFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	header, err := headerLine(testHeader())
	if err != nil {
		t.Fatal(err)
	}
	legacy := string(header) +
		`{"v":1,"campaign":"toy","shard":0,"shards":1,"range":{"lo":0,"hi":4},"partial":{"Sum":6}}` + "\n" +
		`{"v":1,"campaign":"toy","shard":0,"shards":1,"range":{"lo":8,"hi":12},"partial":{"Sum":38}}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	h, frames, truncated, err := LoadJournal(path)
	if err != nil || truncated || h.Campaign != "toy" || len(frames) != 2 {
		t.Fatalf("load: header %+v, %d frames, truncated %v, %v", h, len(frames), truncated, err)
	}
	m := NewMerger(12, mergeSum)
	for _, f := range frames {
		var p sumPartial
		if err := json.Unmarshal(f.Partial, &p); err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(f.Range, p); err != nil {
			t.Fatal(err)
		}
	}
	if missing := m.Missing(); len(missing) != 1 || missing[0] != (Range{4, 8}) {
		t.Fatalf("missing after replay = %v, want [4:8]", missing)
	}
	var compacted []Frame
	for _, pt := range m.Parts() {
		p, _ := json.Marshal(pt.Partial)
		compacted = append(compacted, Frame{Campaign: "toy", Range: pt.Range, Partial: p})
	}
	j, err := CompactJournal(path, testHeader(), compacted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testFrame(Range{4, 8})); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(Range{4, 8}, sumOver(Range{4, 8})); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Result(); err != nil || got != sumOver(Range{0, 12}) {
		t.Fatalf("resumed result = %+v, %v; want %+v", got, err, sumOver(Range{0, 12}))
	}
	if _, frames, _, err := LoadJournal(path); err != nil || len(frames) != 3 {
		t.Fatalf("compacted journal reloads as %d frames, %v; want 3", len(frames), err)
	}
}

func TestJournalFlushEveryBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	j, err := CreateJournal(path, testHeader(), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(testFrame(Range{0, 4})); err != nil {
		t.Fatal(err)
	}
	// With FlushEvery=100 the frame sits in the bufio buffer: the on-disk
	// file holds only the (synced) header line so far.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := json.Marshal(JournalHeader{V: JournalVersion, Journal: journalMagic, Campaign: "toy", Jobs: 12, Config: "seed=1"})
	if fi.Size() != int64(len(h)+1) {
		t.Fatalf("journal grew to %d bytes before FlushEvery; unsynced appends should stay buffered", fi.Size())
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	fi2, _ := os.Stat(path)
	if fi2.Size() <= fi.Size() {
		t.Fatal("Sync did not flush the buffered frame")
	}
}
