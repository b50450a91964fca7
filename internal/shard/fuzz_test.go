package shard

import "testing"

// The -chaos plan is the coordinator's command line to its workers. This
// target drives its parser with arbitrary strings, seeded from the forms
// ChaosPlan.String prints. Plain go test runs the seed corpus; go test
// -fuzz explores from it.

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
