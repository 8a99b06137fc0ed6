package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

const (
	schedProcs = 12
	schedOps   = 2000000
)

// probeLedger measures the sharded AUB ledger alone: TestAndAdd followed by
// WithdrawJob, each worker on its own processor so that with eight shards no
// two workers share a lock and with one shard they all do. This is the
// layer-level half of the question whether sharding pays; whether
// throughput_jobs_s on live-overload follows it is the other half.
func probeLedger(div int) (metrics, error) {
	ops := schedOps / div
	churn := func(shards, workers, ops int) (time.Duration, uint64, error) {
		ledger := sched.NewShardedLedger(schedProcs, shards)
		var failed atomic.Int64
		var elapsed time.Duration
		allocs := allocsDuring(func() {
			var wg sync.WaitGroup
			t0 := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					task := fmt.Sprintf("probe-%d", w)
					placement := []sched.PlacedStage{{Stage: 0, Proc: w % schedProcs, Util: 0.001}}
					for job := int64(0); job < int64(ops/workers); job++ {
						ref := sched.JobRef{Task: task, Job: job}
						ok, err := ledger.TestAndAdd(ref, sched.Aperiodic, placement, false, time.Hour)
						if err != nil || !ok || ledger.WithdrawJob(ref) != 1 {
							failed.Add(1)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			elapsed = time.Since(t0)
		})
		if failed.Load() > 0 {
			return 0, 0, fmt.Errorf("probe sched: shards=%d: an admission or its withdrawal failed", shards)
		}
		return elapsed, allocs, nil
	}

	workers := runtime.GOMAXPROCS(0)
	m := metrics{}
	for _, shards := range []int{1, 8} {
		elapsed, _, err := churn(shards, workers, ops)
		if err != nil {
			return nil, err
		}
		m[fmt.Sprintf("sched.admit_shards%d_ops_s", shards)] = float64(ops) / elapsed.Seconds()
	}
	elapsed, allocs, err := churn(1, 1, ops/4)
	if err != nil {
		return nil, err
	}
	m["sched.admit_ns"] = float64(elapsed) / float64(ops/4)
	m["sched.admit_allocs"] = float64(allocs) / float64(ops/4)
	return m, nil
}
