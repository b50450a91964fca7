package experiment

import (
	"reflect"
	"testing"
)

// The forked campaign runners must be byte-identical to the straight
// (pre-forking) implementations at any worker count. These tests pin that:
// every campaign is run both ways at 1 and 8 workers and compared with
// DeepEqual (all result fields are plain values).

func TestFaultCampaignForkedMatchesStraight(t *testing.T) {
	cfg := FaultCampaignConfig{BaseSeed: 60, Seeds: 1, Teleop: 4}
	for _, workers := range []int{1, 8} {
		withWorkers(t, workers, func() {
			ResetReferenceCache()
			straight, err := runFaultCampaignStraight(cfg)
			if err != nil {
				t.Fatalf("workers=%d: straight: %v", workers, err)
			}
			ResetReferenceCache()
			forked, err := RunFaultCampaign(cfg)
			if err != nil {
				t.Fatalf("workers=%d: forked: %v", workers, err)
			}
			if !reflect.DeepEqual(straight, forked) {
				t.Fatalf("workers=%d: forked fault campaign diverged from straight run\nstraight: %+v\nforked:   %+v",
					workers, straight, forked)
			}
		})
	}
}

func TestFig6SeedIdenticalAcrossWorkerCounts(t *testing.T) {
	// Fig 5/6 run their nine captured sessions as runJobs jobs; the
	// captures must not depend on the worker count.
	var results []Fig6Result
	for _, workers := range []int{1, 8} {
		withWorkers(t, workers, func() {
			ResetReferenceCache()
			r, err := RunFig6(33)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			results = append(results, r)
		})
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("RunFig6 diverged between 1 and 8 workers")
	}
}

func TestMitigationSweepMatchesPerValueComparisons(t *testing.T) {
	// A one-value sweep runs its head rig on and takes no snapshot; a
	// two-value sweep forks the second value off the head.
	cfg := MitigationConfig{Attacks: 4, BaseSeed: 90}
	for _, values := range [][]int16{{12000, 20000}, {16000}} {
		for _, workers := range []int{1, 8} {
			withWorkers(t, workers, func() {
				ResetReferenceCache()
				straight := make([]MitigationResult, len(values))
				for vi, v := range values {
					vcfg := cfg
					vcfg.Value = v
					r, err := runMitigationStraight(vcfg)
					if err != nil {
						t.Fatalf("values=%v workers=%d: comparison value=%d: %v", values, workers, v, err)
					}
					straight[vi] = r
				}
				ResetReferenceCache()
				swept, err := RunMitigationSweep(values, cfg)
				if err != nil {
					t.Fatalf("values=%v workers=%d: sweep: %v", values, workers, err)
				}
				if !reflect.DeepEqual(straight, swept) {
					t.Fatalf("values=%v workers=%d: sweep diverged from per-value comparisons\nstraight: %+v\nswept:    %+v",
						values, workers, straight, swept)
				}
			})
		}
	}
}

func TestTable1ForkedMatchesStraight(t *testing.T) {
	for _, workers := range []int{1, 8} {
		withWorkers(t, workers, func() {
			ResetReferenceCache()
			straight, err := runTable1Straight(50)
			if err != nil {
				t.Fatalf("workers=%d: straight: %v", workers, err)
			}
			ResetReferenceCache()
			forked, err := RunTable1(50)
			if err != nil {
				t.Fatalf("workers=%d: forked: %v", workers, err)
			}
			if !reflect.DeepEqual(straight, forked) {
				t.Fatalf("workers=%d: forked Table 1 diverged from straight run\nstraight: %+v\nforked:   %+v",
					workers, straight, forked)
			}
		})
	}
}
