package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"ravenguard/internal/fault"
)

// withWorkers runs f under a fixed pool size and restores the default.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	SetWorkers(n)
	defer SetWorkers(0)
	f()
}

func TestRunJobsOrderedResults(t *testing.T) {
	withWorkers(t, 8, func() {
		got, err := runJobs(100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
			}
		}
	})
}

func TestRunJobsFirstErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	// failAt5 records which jobs ran; job 5 fails.
	failAt5 := func(ran []atomic.Bool) func(i int) (int, error) {
		return func(i int) (int, error) {
			ran[i].Store(true)
			if i == 5 {
				return 0, fmt.Errorf("job %d: %w", i, boom)
			}
			return i, nil
		}
	}
	// At one worker the schedule is fixed: jobs 0-5 run in order and the
	// failure stops the batch before job 6 starts.
	withWorkers(t, 1, func() {
		ran := make([]atomic.Bool, 1000)
		res, err := runJobs(len(ran), failAt5(ran))
		if !errors.Is(err, boom) || res != nil {
			t.Fatalf("runJobs = %v, %v; want nil, wrapped %v", res, err, boom)
		}
		for i := range ran {
			if want := i <= 5; ran[i].Load() != want {
				t.Fatalf("job %d ran = %v, want %v (exactly jobs 0-5)", i, ran[i].Load(), want)
			}
		}
	})
	// At four workers how many jobs start before the failure is recorded
	// depends on scheduling, so only the race-free properties are checked:
	// the error surfaces, no results are returned, and every job handed
	// out before job 5 ran.
	withWorkers(t, 4, func() {
		ran := make([]atomic.Bool, 1000)
		res, err := runJobs(len(ran), failAt5(ran))
		if !errors.Is(err, boom) || res != nil {
			t.Fatalf("runJobs = %v, %v; want nil, wrapped %v", res, err, boom)
		}
		for i := 0; i <= 5; i++ {
			if !ran[i].Load() {
				t.Fatalf("job %d did not run", i)
			}
		}
	})
}

func TestRunJobsLowestIndexedError(t *testing.T) {
	// Force every job through one worker so both failures definitely run;
	// the returned error must be the lowest-indexed one.
	withWorkers(t, 1, func() {
		calls := 0
		_, err := runJobs(4, func(i int) (int, error) {
			calls++
			if i == 2 {
				return 0, errors.New("late failure")
			}
			if i == 1 {
				return 0, errors.New("early failure")
			}
			return i, nil
		})
		if err == nil || err.Error() != "early failure" {
			t.Fatalf("err = %v, want the lowest-indexed failure", err)
		}
		if calls >= 4 {
			t.Fatalf("scheduling did not stop after the first failure (%d calls)", calls)
		}
	})
}

func TestRunJobsEmpty(t *testing.T) {
	got, err := runJobs(0, func(int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("runJobs(0) = %v, %v", got, err)
	}
}

func TestWorkersKnob(t *testing.T) {
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(-1) // negative resets to the default like 0
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", Workers())
	}
	SetWorkers(0)
}

// TestCampaignsSeedIdenticalAcrossWorkerCounts runs a small fault campaign
// (the richest reduction: matrix classification + confusion counts) and
// Figure 6 (rng-scripted captures + cross-run inference) at one worker and
// at eight, requiring bit-identical results: parallelism must only trade
// wall-clock for CPU.
func TestCampaignsSeedIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := FaultCampaignConfig{
		BaseSeed: 17,
		Seeds:    1,
		Teleop:   4,
		Kinds:    []fault.Kind{fault.KindPacketLoss, fault.KindEncoderDropout},
	}

	var serialFault, parallelFault FaultCampaignResult
	var serialFig6, parallelFig6 Fig6Result
	withWorkers(t, 1, func() {
		var err error
		if serialFault, err = RunFaultCampaign(cfg); err != nil {
			t.Fatal(err)
		}
		if serialFig6, err = RunFig6(7); err != nil {
			t.Fatal(err)
		}
	})
	withWorkers(t, 8, func() {
		var err error
		if parallelFault, err = RunFaultCampaign(cfg); err != nil {
			t.Fatal(err)
		}
		if parallelFig6, err = RunFig6(7); err != nil {
			t.Fatal(err)
		}
	})

	if !reflect.DeepEqual(serialFault, parallelFault) {
		t.Fatalf("fault campaign differs across worker counts:\nworkers=1: %+v\nworkers=8: %+v",
			serialFault, parallelFault)
	}
	if !reflect.DeepEqual(serialFig6, parallelFig6) {
		t.Fatalf("fig6 differs across worker counts:\nworkers=1: %+v\nworkers=8: %+v",
			serialFig6, parallelFig6)
	}
}
