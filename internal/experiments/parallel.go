package experiments

import (
	"runtime"
	"sync"
)

// This file is the concurrent trial harness for the experiment runners.
// Every (combo, set) trial of the Figure 5/6 sweeps and every seed of the
// ablation owns an independent SimSystem (or replay ledger), so trials are
// embarrassingly parallel; the harness fans them across a bounded worker
// pool while writing each result into its pre-assigned slot, which keeps
// result ordering — and therefore the rendered figures — bit-identical to
// the serial runner.

// ResolveWorkers normalizes a worker-count option: values below 1 select
// one worker per available CPU, everything else is used as given.
func ResolveWorkers(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// runTrials executes fn(i) for every i in [0, n) on at most workers
// concurrent goroutines (a negative count means one per CPU). With workers ≤ 1 it degenerates to a plain serial
// loop on the calling goroutine (no goroutines spawned, deterministic
// failure point). Every trial runs regardless of other trials' failures —
// results land in caller-owned slots — and the error of the lowest-indexed
// failed trial is returned, matching the serial loop's first-error
// semantics.
func runTrials(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers < 0 {
		workers = ResolveWorkers(workers)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
