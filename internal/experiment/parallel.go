package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The campaign worker pool. Every campaign in this package decomposes into
// independent jobs (each job owns its rigs; the shared reference cache is
// internally locked), runs them on this pool, and reduces the results
// single-threaded in input-index order — so a campaign's output is
// seed-identical at any worker count: parallelism only trades wall-clock
// for CPU.
var (
	workersMu  sync.Mutex
	numWorkers int // 0 = GOMAXPROCS
)

// SetWorkers sets the pool size used by every campaign; 0 restores the
// GOMAXPROCS default. Safe to call between campaigns (labrunner's -workers
// flag lands here).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workersMu.Lock()
	numWorkers = n
	workersMu.Unlock()
}

// Workers returns the effective pool size.
func Workers() int {
	workersMu.Lock()
	n := numWorkers
	workersMu.Unlock()
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// runJobs executes n independent jobs on the pool and returns their
// results in input order. Each job must derive everything it needs from
// its index (fixed job order is what makes campaigns deterministic). The
// first error stops the batch: no job starts after it (running jobs
// finish), and the error of the lowest-indexed failed job is returned.
func runJobs[T any](n int, run func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Bool
	)
	workers := min(Workers(), n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if results[i], errs[i] = run(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runTrials executes trials concurrently and returns results in input
// order.
func runTrials(trials []Trial) ([]Result, error) {
	return runJobs(len(trials), func(i int) (Result, error) {
		return trials[i].Run()
	})
}
