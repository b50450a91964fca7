// Package interpose emulates the Linux dynamic-linker interposition
// mechanism (LD_PRELOAD / /etc/ld.so.preload) that the paper's malware uses
// to wrap the write system call: a chain of wrappers sits between the
// control software's USB write and the interface board, each able to
// observe the buffer, mutate it, drop it, or pass it through — exactly the
// powers a preloaded shared library has over a wrapped libc call.
//
// The chain is also where defenses live: the paper's dynamic model-based
// detector is inserted at the bottom of the chain (closest to the
// hardware), below any malicious wrapper, reflecting its proposed placement
// "at lower layers of the control structure and just before the commands
// are going to be executed on the physical robot".
package interpose

import "errors"

// Verdict is a wrapper's decision about a frame.
type Verdict int

// Verdicts.
const (
	// Pass forwards the (possibly mutated) frame to the next wrapper.
	Pass Verdict = iota + 1
	// Drop silently discards the frame; the underlying write never happens.
	Drop
)

// Wrapper observes and may mutate one outgoing frame. buf is the frame
// contents; wrappers may modify it in place (that is the whole point of the
// attack). Returning Drop stops propagation.
type Wrapper interface {
	// Name identifies the wrapper in diagnostics.
	Name() string
	// OnWrite is invoked for every frame written down the chain.
	OnWrite(buf []byte) Verdict
}

// Reslicer is an optional extension of Wrapper: after OnWrite returns
// Pass, a wrapper that also implements Reslicer may replace the frame
// outright — including changing its length. In-place mutation cannot
// express a truncated bus transfer; accidental-fault wrappers (see
// internal/fault) use this to hand the board a short frame, exactly as a
// failing transfer would.
type Reslicer interface {
	// Reslice returns the frame to forward in place of buf (possibly buf
	// itself, possibly shorter). Returning nil forwards an empty frame.
	Reslice(buf []byte) []byte
}

// WriterFunc adapts a function to the final write target (the "real"
// system call).
type WriterFunc func(buf []byte) error

// Chain is an ordered interposition stack over a write target. Wrappers are
// invoked in the order they were preloaded (index 0 first), mirroring the
// loader's symbol-resolution order. The zero value is unusable; use
// NewChain.
type Chain struct {
	wrappers []Wrapper
	target   WriterFunc
	writes   int
	dropped  int
}

// ErrNoTarget is returned when a chain without a target is written to.
var ErrNoTarget = errors.New("interpose: chain has no write target")

// NewChain builds a chain over the given target write function.
func NewChain(target WriterFunc) *Chain {
	return &Chain{target: target}
}

// Preload pushes a wrapper onto the chain ahead of previously loaded ones,
// the way a new LD_PRELOAD entry resolves before existing libraries. It
// returns the chain for fluent setup.
func (c *Chain) Preload(w Wrapper) *Chain {
	c.wrappers = append([]Wrapper{w}, c.wrappers...)
	return c
}

// Append adds a wrapper at the bottom of the chain (closest to the target);
// this is where hardware-side defenses such as the dynamic-model detector
// are installed, below any malicious preload.
func (c *Chain) Append(w Wrapper) *Chain {
	c.wrappers = append(c.wrappers, w)
	return c
}

// Remove detaches the first wrapper with the given name, reporting whether
// one was found.
func (c *Chain) Remove(name string) bool {
	for i, w := range c.wrappers {
		if w.Name() == name {
			c.wrappers = append(c.wrappers[:i], c.wrappers[i+1:]...)
			return true
		}
	}
	return false
}

// Wrappers lists the names currently installed, top (first-invoked) first.
func (c *Chain) Wrappers() []string {
	names := make([]string, len(c.wrappers))
	for i, w := range c.wrappers {
		names[i] = w.Name()
	}
	return names
}

// Write pushes one frame down the chain. Each wrapper may mutate buf in
// place or drop it. The frame reaches the target only if every wrapper
// passes it. A copy is NOT taken: like the real syscall path, everyone
// sees the same buffer.
func (c *Chain) Write(buf []byte) error {
	if c.target == nil {
		return ErrNoTarget
	}
	c.writes++
	for _, w := range c.wrappers {
		if w.OnWrite(buf) == Drop {
			c.dropped++
			return nil
		}
		if rs, ok := w.(Reslicer); ok {
			buf = rs.Reslice(buf)
		}
	}
	// The target's error is returned as-is: wrapping would allocate on
	// every rejected frame, and fault campaigns reject frames for whole
	// stall windows. Targets already name themselves in their errors.
	return c.target(buf)
}

// Stats returns (total writes entering the chain, frames dropped by
// wrappers).
func (c *Chain) Stats() (writes, dropped int) { return c.writes, c.dropped }

// SetStats restores the chain counters (checkpoint/restore).
func (c *Chain) SetStats(writes, dropped int) { c.writes, c.dropped = writes, dropped }

// Each visits every installed wrapper, top (first-invoked) first. The rig's
// checkpoint machinery uses this to reach stateful wrappers (malware,
// fault injectors, the guard) without the chain knowing their types.
func (c *Chain) Each(f func(w Wrapper)) {
	for _, w := range c.wrappers {
		f(w)
	}
}
