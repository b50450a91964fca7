// Package shard scales a campaign across worker processes: it cuts the
// campaign's deterministic job-index space into contiguous chunks,
// supervises the worker processes it dispatches them to, and merges the
// partial aggregates the workers stream back as JSON frames.
//
// The contract that makes this exact rather than approximate: a campaign's
// partial aggregate over a job range must merge with its neighbour into
// the same bits the single-process reduction over the union would produce
// (integer counters and maxima are exact by nature; mean/std streams go
// through stats.Forest, whose fixed-shape reduction tree is a function of
// the job indices alone). Given that, the merged result of any shard
// count, chunk size, and frame arrival order is byte-identical to the
// in-process runner — sharding only trades wall-clock for processes.
package shard

import (
	"fmt"
	"sort"
)

// Range is a half-open interval [Lo, Hi) of job indices.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of jobs in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// String renders the range as "lo:hi".
func (r Range) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

// Split partitions [0, n) into k contiguous near-equal ranges (the first
// n%k ranges are one job longer). k must be positive; empty ranges appear
// only when k > n.
func Split(n, k int) []Range {
	if k < 1 {
		k = 1
	}
	if n < 0 {
		n = 0
	}
	out := make([]Range, k)
	lo := 0
	for i := 0; i < k; i++ {
		size := n / k
		if i < n%k {
			size++
		}
		out[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// Chunks cuts r into consecutive pieces of at most size jobs. Workers
// process one chunk at a time, emit its partial frame, and drop the
// per-trial state — that is what keeps worker memory flat at any trial
// count. size <= 0 returns r whole.
func Chunks(r Range, size int) []Range {
	if size <= 0 || r.Len() <= size {
		if r.Len() <= 0 {
			return nil
		}
		return []Range{r}
	}
	out := make([]Range, 0, (r.Len()+size-1)/size)
	for lo := r.Lo; lo < r.Hi; lo += size {
		hi := lo + size
		if hi > r.Hi {
			hi = r.Hi
		}
		out = append(out, Range{Lo: lo, Hi: hi})
	}
	return out
}

// part is one contiguous merged piece held by a Merger.
type part[P any] struct {
	r Range
	p P
}

// Part is one contiguous merged piece of a Merger's coverage, exposed for
// journal compaction: the partial aggregate of the covered range.
type Part[P any] struct {
	Range   Range
	Partial P
}

// Merger folds partial aggregates, arriving in any order, into full
// coverage of [0, jobs). Adjacent pieces coalesce eagerly, so the merger
// holds at most one piece per coverage gap — memory stays flat no matter
// how many frames stream through.
type Merger[P any] struct {
	jobs    int
	merge   func(dst, src P) (P, error)
	parts   []part[P] // sorted by Lo, disjoint, maximally coalesced
	covered int
	dropped int // already-covered duplicates observed and discarded
}

// NewMerger builds a merger for a job space of the given size. merge must
// combine the partials of two adjacent ranges (dst immediately left of
// src) into the partial of their union.
func NewMerger[P any](jobs int, merge func(dst, src P) (P, error)) *Merger[P] {
	return &Merger[P]{jobs: jobs, merge: merge}
}

// Observe folds in the partial for one job range. A range that is already
// fully covered — a retried worker's duplicate frame, a chunk replayed
// from a journal — is a no-op: campaign partials are deterministic per
// range, so the duplicate carries no new information and is dropped
// (counted by Dropped). Ranges that only *partially* overlap existing
// coverage are rejected: they would double-count the overlapped jobs,
// and the aligned chunk grids every dispatcher uses can never produce
// them, so one appearing means misconfigured inputs.
func (m *Merger[P]) Observe(r Range, p P) error {
	if r.Lo < 0 || r.Hi > m.jobs || r.Lo > r.Hi {
		return fmt.Errorf("shard: partial range %v outside job space [0,%d)", r, m.jobs)
	}
	if r.Len() == 0 {
		return nil
	}
	// Find the insertion point; drop fully-covered duplicates, reject
	// partial overlap with either neighbour. Parts are maximally
	// coalesced, so any fully-covered range lies inside a single part.
	i := sort.Search(len(m.parts), func(i int) bool { return m.parts[i].r.Lo >= r.Lo })
	if i > 0 && m.parts[i-1].r.Hi > r.Lo {
		if m.parts[i-1].r.Hi >= r.Hi {
			m.dropped++
			return nil
		}
		return fmt.Errorf("shard: partial range %v overlaps %v", r, m.parts[i-1].r)
	}
	if i < len(m.parts) && m.parts[i].r.Lo < r.Hi {
		if m.parts[i].r.Lo == r.Lo && m.parts[i].r.Hi >= r.Hi {
			m.dropped++
			return nil
		}
		return fmt.Errorf("shard: partial range %v overlaps %v", r, m.parts[i].r)
	}
	m.parts = append(m.parts, part[P]{})
	copy(m.parts[i+1:], m.parts[i:])
	m.parts[i] = part[P]{r: r, p: p}
	m.covered += r.Len()

	// Coalesce with the right neighbour, then the left one. The merge
	// operation is exact for adjacent ranges, so eager coalescing in
	// arrival order cannot change the final bits.
	if i+1 < len(m.parts) && m.parts[i].r.Hi == m.parts[i+1].r.Lo {
		merged, err := m.merge(m.parts[i].p, m.parts[i+1].p)
		if err != nil {
			return err
		}
		m.parts[i] = part[P]{r: Range{Lo: m.parts[i].r.Lo, Hi: m.parts[i+1].r.Hi}, p: merged}
		m.parts = append(m.parts[:i+1], m.parts[i+2:]...)
	}
	if i > 0 && m.parts[i-1].r.Hi == m.parts[i].r.Lo {
		merged, err := m.merge(m.parts[i-1].p, m.parts[i].p)
		if err != nil {
			return err
		}
		m.parts[i-1] = part[P]{r: Range{Lo: m.parts[i-1].r.Lo, Hi: m.parts[i].r.Hi}, p: merged}
		m.parts = append(m.parts[:i], m.parts[i+1:]...)
	}
	return nil
}

// Covered returns how many jobs the observed partials cover so far.
func (m *Merger[P]) Covered() int { return m.covered }

// Dropped returns how many already-covered duplicate ranges Observe has
// discarded (retried workers re-emitting a chunk, journal replays).
func (m *Merger[P]) Dropped() int { return m.dropped }

// Missing returns the uncovered gaps of the job space, in ascending
// order. A resuming coordinator dispatches exactly these ranges.
func (m *Merger[P]) Missing() []Range {
	var gaps []Range
	lo := 0
	for _, pt := range m.parts {
		if pt.r.Lo > lo {
			gaps = append(gaps, Range{Lo: lo, Hi: pt.r.Lo})
		}
		lo = pt.r.Hi
	}
	if lo < m.jobs {
		gaps = append(gaps, Range{Lo: lo, Hi: m.jobs})
	}
	return gaps
}

// Parts returns the merged coverage so far as maximally-coalesced pieces
// in ascending order — what a journal compaction persists.
func (m *Merger[P]) Parts() []Part[P] {
	out := make([]Part[P], len(m.parts))
	for i, pt := range m.parts {
		out[i] = Part[P]{Range: pt.r, Partial: pt.p}
	}
	return out
}

// Result returns the merged partial for the full job space. It fails while
// coverage has gaps (a shard is missing or still running).
func (m *Merger[P]) Result() (P, error) {
	var zero P
	if m.jobs == 0 {
		return zero, nil
	}
	if m.covered != m.jobs || len(m.parts) != 1 {
		missing := ""
		for _, g := range m.Missing() {
			missing += fmt.Sprintf(" %v", g)
		}
		return zero, fmt.Errorf("shard: incomplete coverage, missing job ranges:%s", missing)
	}
	return m.parts[0].p, nil
}
