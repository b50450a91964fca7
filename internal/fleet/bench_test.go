package fleet

import (
	"testing"
)

// benchSpecs mirrors the bench.sh fleet mix at n sessions: a third clean,
// a third under scenario B with mitigation, a third under scenario A with
// hold-safe.
func benchSpecs(n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		sp := Spec{Seed: int64(1000 + i), TeleopSeconds: 4}
		switch i % 3 {
		case 1:
			sp.Attack, sp.Guard = "B", "mitigate"
			sp.AttackValue, sp.AttackDelay, sp.AttackDuration = 20000, 150, 64
		case 2:
			sp.Attack, sp.Guard = "A", "holdsafe"
			sp.AttackMagnitude, sp.AttackDelay, sp.AttackDuration = 0.004, 150, 64
		}
		specs[i] = sp
	}
	return specs
}

// BenchmarkWorkerTick measures one worker tick over 64 resident mixed
// sessions — the fleet engine's hot loop. ns/op divided by 64 is the
// per-session tick cost that bounds sessions/core. Two phases: /teleop
// times pedal-down ticks 3000–6000 (guard predictions, trajectory
// evaluation; the sessions end at ~6550); /homing times ticks 600–1600,
// mid-homing, where friction saturates and the plant kernel's latency
// rather than its throughput sets the cost.
func BenchmarkWorkerTick(b *testing.B) {
	b.Run("teleop", func(b *testing.B) { benchWorkerTicks(b, 3000, 6000) })
	b.Run("homing", func(b *testing.B) { benchWorkerTicks(b, 600, 1600) })
}

// benchWorkerTicks times worker ticks [from, to) only: the 64 sessions
// are rebuilt and warmed to tick from again, outside the timer, each time
// tick to is reached.
func benchWorkerTicks(b *testing.B, from, to int) {
	var w *Worker
	tick := 0
	for i := 0; i < b.N; i++ {
		if w == nil || tick == to {
			b.StopTimer()
			w = newBenchWorker(b)
			for tick = 0; tick < from; tick++ {
				if err := w.Tick(); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if err := w.Tick(); err != nil {
			b.Fatal(err)
		}
		tick++
	}
}

// newBenchWorker admits benchSpecs(64) onto a fresh worker.
func newBenchWorker(b *testing.B) *Worker {
	w, err := NewWorker(64, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, sp := range benchSpecs(64) {
		s, err := sp.Build()
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Admit(s); err != nil {
			b.Fatal(err)
		}
	}
	return w
}
