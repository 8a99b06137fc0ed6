package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunTrialsCoversAllIndexes checks every index runs exactly once and the
// worker bound is respected.
func TestRunTrialsCoversAllIndexes(t *testing.T) {
	const n, workers = 100, 4
	var ran [n]int32
	var inFlight, peak int32
	var mu sync.Mutex
	err := runTrials(n, workers, func(i int) error {
		cur := atomic.AddInt32(&inFlight, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		atomic.AddInt32(&ran[i], 1)
		atomic.AddInt32(&inFlight, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("trial %d ran %d times", i, c)
		}
	}
	if peak > workers {
		t.Errorf("observed %d concurrent trials, worker bound is %d", peak, workers)
	}
}

// TestRunTrialsFirstErrorByIndex checks that the lowest-indexed failure wins
// regardless of completion order, matching the serial loop's semantics.
func TestRunTrialsFirstErrorByIndex(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("trial %d failed", i) }
	err := runTrials(10, 4, func(i int) error {
		if i == 7 || i == 3 {
			return boom(i)
		}
		return nil
	})
	if err == nil || err.Error() != "trial 3 failed" {
		t.Fatalf("err = %v, want trial 3's error", err)
	}

	sentinel := errors.New("serial failure")
	calls := 0
	err = runTrials(10, 1, func(i int) error {
		calls++
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("serial err = %v, want sentinel", err)
	}
	if calls != 3 {
		t.Errorf("serial run made %d calls after failure at index 2, want 3", calls)
	}
}

// TestFigureParallelBitIdentical is the acceptance check for the concurrent
// runner: RunFigure5/RunFigure6 results must be bit-identical between the
// serial and parallel paths, per-set values included.
func TestFigureParallelBitIdentical(t *testing.T) {
	for _, fig := range []struct {
		name string
		run  func(FigureOptions) ([]ComboResult, error)
	}{
		{"figure5", RunFigure5},
		{"figure6", RunFigure6},
	} {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			opts := FigureOptions{Sets: 3, Horizon: 45 * time.Second}
			serial, err := fig.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = 8
			parallel, err := fig.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != len(parallel) {
				t.Fatalf("serial %d combos, parallel %d", len(serial), len(parallel))
			}
			for i := range serial {
				if serial[i].Combo != parallel[i].Combo {
					t.Fatalf("combo order diverged at %d: %s vs %s", i, serial[i].Combo, parallel[i].Combo)
				}
				if serial[i].Mean != parallel[i].Mean {
					t.Errorf("%s: mean %v (serial) vs %v (parallel)", serial[i].Combo, serial[i].Mean, parallel[i].Mean)
				}
				for s := range serial[i].PerSet {
					if serial[i].PerSet[s] != parallel[i].PerSet[s] {
						t.Errorf("%s set %d: %v (serial) vs %v (parallel)",
							serial[i].Combo, s, serial[i].PerSet[s], parallel[i].PerSet[s])
					}
				}
			}
		})
	}
}

// TestAblationParallelBitIdentical checks the same property for the
// AUB-vs-DS ablation's per-seed fan-out.
func TestAblationParallelBitIdentical(t *testing.T) {
	opts := AblationOptions{Procs: 3, Tasks: 9, Horizon: 30 * time.Second, Seeds: 6}
	serial, err := RunAblationAUBvsDS(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 6
	parallel, err := RunAblationAUBvsDS(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Technique != parallel[i].Technique {
			t.Fatalf("technique order diverged: %s vs %s", serial[i].Technique, parallel[i].Technique)
		}
		if serial[i].AcceptedRatio != parallel[i].AcceptedRatio {
			t.Errorf("%s: ratio %v (serial) vs %v (parallel)", serial[i].Technique, serial[i].AcceptedRatio, parallel[i].AcceptedRatio)
		}
		for s := range serial[i].PerSeed {
			if serial[i].PerSeed[s] != parallel[i].PerSeed[s] {
				t.Errorf("%s seed %d: %v vs %v", serial[i].Technique, s, serial[i].PerSeed[s], parallel[i].PerSeed[s])
			}
		}
	}
}

// TestResolveWorkers pins the worker-count normalization.
func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(3); got != 3 {
		t.Errorf("ResolveWorkers(3) = %d", got)
	}
	if got := ResolveWorkers(0); got < 1 {
		t.Errorf("ResolveWorkers(0) = %d, want ≥ 1", got)
	}
	if got := ResolveWorkers(-2); got < 1 {
		t.Errorf("ResolveWorkers(-2) = %d, want ≥ 1", got)
	}
}
