package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func TestSplitCoversAndBalances(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{10, 3}, {1, 1}, {7, 7}, {3, 8}, {1000, 7}, {0, 3},
	} {
		rs := Split(tc.n, tc.k)
		if len(rs) != tc.k {
			t.Fatalf("Split(%d,%d) returned %d ranges", tc.n, tc.k, len(rs))
		}
		lo := 0
		maxLen, minLen := 0, tc.n+1
		for _, r := range rs {
			if r.Lo != lo {
				t.Fatalf("Split(%d,%d): gap/overlap at %v", tc.n, tc.k, r)
			}
			lo = r.Hi
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
			if r.Len() < minLen {
				minLen = r.Len()
			}
		}
		if lo != tc.n {
			t.Fatalf("Split(%d,%d) covers [0,%d)", tc.n, tc.k, lo)
		}
		if tc.n >= tc.k && maxLen-minLen > 1 {
			t.Fatalf("Split(%d,%d) unbalanced: lens %d..%d", tc.n, tc.k, minLen, maxLen)
		}
	}
}

func TestChunks(t *testing.T) {
	cs := Chunks(Range{Lo: 5, Hi: 22}, 6)
	want := []Range{{5, 11}, {11, 17}, {17, 22}}
	if !reflect.DeepEqual(cs, want) {
		t.Fatalf("Chunks = %v, want %v", cs, want)
	}
	if cs := Chunks(Range{Lo: 3, Hi: 3}, 6); cs != nil {
		t.Fatalf("Chunks of empty range = %v, want nil", cs)
	}
	if cs := Chunks(Range{Lo: 0, Hi: 4}, 0); !reflect.DeepEqual(cs, []Range{{0, 4}}) {
		t.Fatalf("Chunks with size 0 = %v, want whole range", cs)
	}
}

// sumPartial is a toy exactly-mergeable partial: the sum of job indices.
type sumPartial struct{ Sum int }

func mergeSum(a, b sumPartial) (sumPartial, error) {
	return sumPartial{Sum: a.Sum + b.Sum}, nil
}

func sumOver(r Range) sumPartial {
	s := 0
	for i := r.Lo; i < r.Hi; i++ {
		s += i
	}
	return sumPartial{Sum: s}
}

func TestMergerOutOfOrderAndPermuted(t *testing.T) {
	const jobs = 97
	want := sumOver(Range{0, jobs}).Sum
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		chunks := Chunks(Range{0, jobs}, 1+rng.Intn(13))
		perm := rng.Perm(len(chunks))
		m := NewMerger(jobs, mergeSum)
		for step, pi := range perm {
			if _, err := m.Result(); err == nil && step < len(perm) {
				// Result must refuse until coverage completes (unless the
				// permutation is already done, checked below).
				if m.Covered() != jobs {
					t.Fatal("Result succeeded on partial coverage")
				}
			}
			if err := m.Observe(chunks[pi], sumOver(chunks[pi])); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		got, err := m.Result()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Sum != want {
			t.Fatalf("trial %d: merged sum %d, want %d", trial, got.Sum, want)
		}
	}
}

func TestMergerRejectsPartialOverlap(t *testing.T) {
	m := NewMerger(10, mergeSum)
	if err := m.Observe(Range{0, 6}, sumOver(Range{0, 6})); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(Range{5, 10}, sumOver(Range{5, 10})); err == nil {
		t.Fatal("partially overlapping partial should be rejected")
	}
	if err := m.Observe(Range{4, 8}, sumOver(Range{4, 8})); err == nil {
		t.Fatal("partial straddling the covered boundary should be rejected")
	}
	if err := m.Observe(Range{-1, 2}, sumPartial{}); err == nil {
		t.Fatal("out-of-space partial should be rejected")
	}
}

// TestMergerDropsCoveredDuplicates pins the retry-replay contract: a
// chunk re-observed after a worker retry (or journal replay) is a no-op
// — coverage, part structure, and the final Result bits are unchanged.
func TestMergerDropsCoveredDuplicates(t *testing.T) {
	const jobs = 12
	m := NewMerger(jobs, mergeSum)
	for _, r := range []Range{{0, 4}, {4, 8}} {
		if err := m.Observe(r, sumOver(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Exact duplicate of an original chunk, a range inside the coalesced
	// part, and the whole coalesced part itself: all already covered.
	for _, dup := range []Range{{0, 4}, {4, 8}, {2, 6}, {0, 8}, {5, 5}} {
		if err := m.Observe(dup, sumOver(dup)); err != nil {
			t.Fatalf("re-observing covered %v: %v", dup, err)
		}
	}
	if m.Covered() != 8 {
		t.Fatalf("Covered = %d after duplicates, want 8", m.Covered())
	}
	if m.Dropped() != 4 {
		// The empty range is not counted as a drop.
		t.Fatalf("Dropped = %d, want 4", m.Dropped())
	}
	if err := m.Observe(Range{8, jobs}, sumOver(Range{8, jobs})); err != nil {
		t.Fatal(err)
	}
	got, err := m.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := sumOver(Range{0, jobs}); got != want {
		t.Fatalf("Result after duplicates = %+v, want %+v", got, want)
	}
}

func TestMergerMissingAndParts(t *testing.T) {
	m := NewMerger(20, mergeSum)
	for _, r := range []Range{{2, 5}, {5, 8}, {12, 15}} {
		if err := m.Observe(r, sumOver(r)); err != nil {
			t.Fatal(err)
		}
	}
	wantGaps := []Range{{0, 2}, {8, 12}, {15, 20}}
	if got := m.Missing(); !reflect.DeepEqual(got, wantGaps) {
		t.Fatalf("Missing = %v, want %v", got, wantGaps)
	}
	parts := m.Parts()
	wantParts := []Range{{2, 8}, {12, 15}}
	if len(parts) != len(wantParts) {
		t.Fatalf("Parts = %v, want ranges %v", parts, wantParts)
	}
	for i, p := range parts {
		if p.Range != wantParts[i] {
			t.Fatalf("part %d range = %v, want %v", i, p.Range, wantParts[i])
		}
		if p.Partial != sumOver(p.Range) {
			t.Fatalf("part %d partial = %+v, want %+v", i, p.Partial, sumOver(p.Range))
		}
	}
}

func TestMergerReportsMissingRanges(t *testing.T) {
	m := NewMerger(10, mergeSum)
	if err := m.Observe(Range{3, 6}, sumOver(Range{3, 6})); err != nil {
		t.Fatal(err)
	}
	_, err := m.Result()
	if err == nil {
		t.Fatal("Result on gappy coverage should fail")
	}
	for _, frag := range []string{"0:3", "6:10"} {
		if !bytes.Contains([]byte(err.Error()), []byte(frag)) {
			t.Fatalf("error %q does not name missing range %s", err, frag)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	partial, _ := json.Marshal(sumPartial{Sum: 41})
	frames := []Frame{
		{Campaign: "faultcampaign", Range: Range{0, 3}, Partial: partial},
		{Campaign: "faultcampaign", Range: Range{3, 6}, Partial: partial},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	var got []Frame
	if err := ReadFrames(&buf, func(f Frame) error { got = append(got, f); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("read %d frames, want %d", len(got), len(frames))
	}
	for i, f := range got {
		if f.V != FrameVersion || f.Campaign != "faultcampaign" || f.Range != frames[i].Range {
			t.Fatalf("frame %d mismatch: %+v", i, f)
		}
		var p sumPartial
		if err := json.Unmarshal(f.Partial, &p); err != nil {
			t.Fatal(err)
		}
		if p.Sum != 41 {
			t.Fatalf("frame %d partial = %+v", i, p)
		}
	}
}

// TestReadFramesIgnoresLegacyShardKeys pins that frames written before
// Frame lost its Shard/Shards fields still decode: the old keys are
// ignored, and the range and partial come through.
func TestReadFramesIgnoresLegacyShardKeys(t *testing.T) {
	line := `{"v":1,"campaign":"toy","shard":1,"shards":2,"range":{"lo":3,"hi":6},"partial":{"Sum":12}}` + "\n"
	var got []Frame
	if err := ReadFrames(bytes.NewBufferString(line), func(f Frame) error { got = append(got, f); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Campaign != "toy" || got[0].Range != (Range{3, 6}) || string(got[0].Partial) != `{"Sum":12}` {
		t.Fatalf("legacy frame decoded as %+v", got)
	}
}

func TestReadFramesRejectsGarbage(t *testing.T) {
	err := ReadFrames(bytes.NewBufferString("not json\n"), func(Frame) error { return nil })
	if err == nil {
		t.Fatal("garbage line should fail")
	}
	err = ReadFrames(bytes.NewBufferString(`{"v":99,"campaign":"x","shard":0,"shards":1,"range":{"lo":0,"hi":1},"partial":{}}`+"\n"),
		func(Frame) error { return nil })
	if err == nil {
		t.Fatal("wrong frame version should fail")
	}
}

// TestReadFramesTruncatedTail pins the worker-died-mid-write shape: the
// complete frames before the torn line are all delivered, and the tail
// surfaces as ErrTruncatedTail (chunk lost) rather than a generic decode
// failure (campaign abort).
func TestReadFramesTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	whole := Range{0, 3}
	partial, _ := json.Marshal(sumPartial{Sum: 3})
	if err := WriteFrame(&buf, Frame{Campaign: "toy", Range: whole, Partial: partial}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"v":1,"campaign":"toy","ran`) // no trailing newline

	var got []Frame
	err := ReadFrames(&buf, func(f Frame) error { got = append(got, f); return nil })
	if !errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("err = %v, want ErrTruncatedTail", err)
	}
	if len(got) != 1 || got[0].Range != whole {
		t.Fatalf("frames before the torn tail = %+v, want the one complete frame", got)
	}

	// A complete final frame merely missing its newline is still a frame.
	buf.Reset()
	if err := WriteFrame(&buf, Frame{Campaign: "toy", Range: whole, Partial: partial}); err != nil {
		t.Fatal(err)
	}
	buf.Truncate(buf.Len() - 1)
	got = nil
	if err := ReadFrames(&buf, func(f Frame) error { got = append(got, f); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("newline-less complete frame dropped: %+v", got)
	}
}
