package shard

import (
	"fmt"
	"testing"
)

// The shard flags are the coordinator's command line to its workers and an
// operator's to a by-hand worker. These targets drive their parsers with
// arbitrary strings, seeded from the forms the encoders print. Plain go
// test runs the seed corpus; go test -fuzz explores from it.

// FuzzParseSpec: no panic, a rejected spec returns zeros, and an accepted
// i/n reformats with %d/%d to an equal spec.
func FuzzParseSpec(f *testing.F) {
	for _, s := range [][2]int{{0, 1}, {0, 4}, {3, 4}, {4, 4}, {-1, 2}, {1, 0}} {
		f.Add(fmt.Sprintf("%d/%d", s[0], s[1]))
	}
	for _, s := range []string{"", "1", "/", "a/b", "+1/04", "1/2/3", " 0/4"} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, s string) {
		i, k, err := ParseSpec(s)
		if err != nil {
			if i != 0 || k != 0 {
				t.Fatalf("%q rejected but returned %d/%d", s, i, k)
			}
			return
		}
		if k < 1 || i < 0 || i >= k {
			t.Fatalf("%q accepted as out-of-range shard %d/%d", s, i, k)
		}
		i2, k2, err := ParseSpec(fmt.Sprintf("%d/%d", i, k))
		if err != nil || i2 != i || k2 != k {
			t.Fatalf("%q -> %d/%d does not round-trip: %d/%d, %v", s, i, k, i2, k2, err)
		}
	})
}

// FuzzParseChaosPlan: no panic, a rejected plan returns the zero plan, and
// an accepted plan's String() parses back to an equal plan.
func FuzzParseChaosPlan(f *testing.F) {
	for _, p := range []ChaosPlan{
		{},
		{Seed: 16, Crash: 0.25, Truncate: 0.15, Garbage: 0.2, Stall: 0.15},
		{Seed: -7, Crash: 1, Attempts: 4},
		{Seed: 1, Stall: 1e-300},
	} {
		f.Add(p.String())
	}
	for _, s := range []string{"crash=2", "seed=x", "nokey", "crash=0.6,stall=0.6", "attempts=-1", ",,seed=3,"} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseChaosPlan(s)
		if err != nil {
			if p != (ChaosPlan{}) {
				t.Fatalf("%q rejected but returned %+v", s, p)
			}
			return
		}
		back, err := ParseChaosPlan(p.String())
		if err != nil || back != p {
			t.Fatalf("%q -> %+v does not round-trip through %q: %+v, %v", s, p, p.String(), back, err)
		}
	})
}
