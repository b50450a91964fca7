package interpose

import (
	"errors"
	"testing"
)

// recorder is a wrapper that records frames and can mutate or drop them.
type recorder struct {
	name   string
	seen   [][]byte
	mutate func(buf []byte) Verdict
}

func (r *recorder) Name() string { return r.name }

func (r *recorder) OnWrite(buf []byte) Verdict {
	cp := make([]byte, len(buf))
	copy(cp, buf)
	r.seen = append(r.seen, cp)
	if r.mutate != nil {
		return r.mutate(buf)
	}
	return Pass
}

func TestPassThrough(t *testing.T) {
	var got []byte
	c := NewChain(func(buf []byte) error {
		got = append([]byte(nil), buf...)
		return nil
	})
	if err := c.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 {
		t.Fatalf("target saw %v", got)
	}
}

func TestWrapperObservesAndMutates(t *testing.T) {
	// The malicious-wrapper power: see the buffer, change a byte, and the
	// target receives the changed frame.
	var got []byte
	c := NewChain(func(buf []byte) error {
		got = append([]byte(nil), buf...)
		return nil
	})
	evil := &recorder{name: "evil", mutate: func(buf []byte) Verdict {
		buf[1] = 0xAA
		return Pass
	}}
	c.Preload(evil)
	if err := c.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got[1] != 0xAA {
		t.Fatalf("mutation lost: target saw %v", got)
	}
	if len(evil.seen) != 1 {
		t.Fatalf("wrapper saw %d frames", len(evil.seen))
	}
}

func TestDropStopsPropagation(t *testing.T) {
	reached := false
	c := NewChain(func(buf []byte) error { reached = true; return nil })
	below := &recorder{name: "below"}
	c.Append(below)
	c.Preload(&recorder{name: "dropper", mutate: func([]byte) Verdict { return Drop }})
	if err := c.Write([]byte{9}); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("dropped frame reached the target")
	}
	if len(below.seen) != 0 {
		t.Fatal("dropped frame reached a lower wrapper")
	}
	if _, dropped := c.Stats(); dropped != 1 {
		t.Fatalf("dropped count = %d", dropped)
	}
}

func TestPreloadOrderFirstLoadedRunsFirst(t *testing.T) {
	var order []string
	mk := func(name string) *recorder {
		return &recorder{name: name, mutate: func([]byte) Verdict {
			order = append(order, name)
			return Pass
		}}
	}
	c := NewChain(func([]byte) error { return nil })
	c.Preload(mk("first"))
	c.Preload(mk("second")) // preloaded later resolves earlier
	if err := c.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "second" || order[1] != "first" {
		t.Fatalf("invocation order = %v", order)
	}
}

func TestAppendRunsBelowPreloads(t *testing.T) {
	var order []string
	mk := func(name string) *recorder {
		return &recorder{name: name, mutate: func([]byte) Verdict {
			order = append(order, name)
			return Pass
		}}
	}
	c := NewChain(func([]byte) error { return nil })
	c.Append(mk("guard"))
	c.Preload(mk("malware"))
	if err := c.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	if order[0] != "malware" || order[1] != "guard" {
		t.Fatalf("order = %v: guard must sit below malware", order)
	}
}

func TestGuardSeesMalwareMutation(t *testing.T) {
	// Crucial placement property: a defense appended at the bottom sees
	// the frame AFTER the malicious wrapper modified it.
	c := NewChain(func([]byte) error { return nil })
	guard := &recorder{name: "guard"}
	c.Append(guard)
	c.Preload(&recorder{name: "malware", mutate: func(buf []byte) Verdict {
		buf[0] = 0xFF
		return Pass
	}})
	if err := c.Write([]byte{0x00}); err != nil {
		t.Fatal(err)
	}
	if guard.seen[0][0] != 0xFF {
		t.Fatalf("guard saw %#02x, want the post-attack value 0xFF", guard.seen[0][0])
	}
}

func TestRemove(t *testing.T) {
	c := NewChain(func([]byte) error { return nil })
	c.Preload(&recorder{name: "a"})
	c.Preload(&recorder{name: "b"})
	if !c.Remove("a") {
		t.Fatal("Remove(a) failed")
	}
	if c.Remove("a") {
		t.Fatal("Remove(a) succeeded twice")
	}
	if ws := c.Wrappers(); len(ws) != 1 || ws[0] != "b" {
		t.Fatalf("wrappers = %v", ws)
	}
}

func TestNoTarget(t *testing.T) {
	c := NewChain(nil)
	if err := c.Write([]byte{1}); !errors.Is(err, ErrNoTarget) {
		t.Fatalf("err = %v, want ErrNoTarget", err)
	}
}

func TestTargetErrorWrapped(t *testing.T) {
	wantErr := errors.New("bus stall")
	c := NewChain(func([]byte) error { return wantErr })
	if err := c.Write([]byte{1}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped bus stall", err)
	}
}

func TestStatsCountWrites(t *testing.T) {
	c := NewChain(func([]byte) error { return nil })
	for i := 0; i < 7; i++ {
		if err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if writes, _ := c.Stats(); writes != 7 {
		t.Fatalf("writes = %d", writes)
	}
}
