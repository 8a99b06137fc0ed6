package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

const (
	ctrlBatches = 200
	ctrlBatch   = 1000 // calls per timed batch: ctrlBatches*ctrlBatch = 200 000 iterations
)

// probeController measures the admission controller alone, off the network:
// the paper's operation 4 (Arrive under J_N_N), operations 3+4 (J_J_J, with
// the load balancer's Location), the reject path on a ledger held at the
// bound, and operation 8 (Arrive + IdleReset + ExpireJob). Each reading is
// the median over batches of the per-call mean, because one call is shorter
// than the clock's resolution.
func probeController(div int) (metrics, error) {
	batches := max(ctrlBatches/div, 3)
	steady, overload := liveSpecs["live-steady"], liveSpecs["live-overload"]
	tasks := make([]*sched.Task, liveTasks)
	heavy := make([]*sched.Task, liveTasks)
	for i := range tasks {
		tasks[i] = steady.liveTask(fmt.Sprintf("t%02d", i), i, false)
		heavy[i] = overload.liveTask(fmt.Sprintf("t%02d", i), i, false)
	}
	sched.AssignEDMSPriorities(tasks)
	sched.AssignEDMSPriorities(heavy)

	// timeArrivals returns the median ns per Arrive over the batches; every
	// job must get the wanted verdict, and admitted jobs are expired between
	// batches, untimed, so the ledger stays in steady state.
	timeArrivals := func(cfg string, set []*sched.Task, prefill bool, want bool) (float64, float64, error) {
		combo, err := core.ParseConfig(cfg)
		if err != nil {
			return 0, 0, err
		}
		ctrl, err := core.NewController(combo, liveProcs)
		if err != nil {
			return 0, 0, err
		}
		job := int64(0)
		// Prefill until every task in turn is refused: the ledger is then at
		// the bound on every processor and stays there, nothing expiring.
		for refused := 0; prefill && refused < len(set); job++ {
			if ctrl.Arrive(set[int(job)%len(set)], job, 0).Accept {
				refused = 0
			} else {
				refused++
			}
		}
		perCall := make([]float64, 0, batches)
		var wrong int
		allocs := allocsDuring(func() {
			for b := 0; b < batches; b++ {
				first := job
				t0 := time.Now()
				for i := 0; i < ctrlBatch; i++ {
					if ctrl.Arrive(set[int(job)%len(set)], job, 0).Accept != want {
						wrong++
					}
					job++
				}
				perCall = append(perCall, float64(time.Since(t0))/ctrlBatch)
				for j := first; want && j < job; j++ {
					ctrl.ExpireJob(sched.JobRef{Task: set[int(j)%len(set)].ID, Job: j})
				}
			}
		})
		if wrong > 0 {
			return 0, 0, fmt.Errorf("%s: %d arrivals got the wrong verdict", cfg, wrong)
		}
		return median(perCall), float64(allocs) / float64(batches*ctrlBatch), nil
	}

	m := metrics{}
	var err error
	if m["core.arrive_jnn_ns"], m["core.arrive_allocs"], err = timeArrivals("J_N_N", tasks, false, true); err != nil {
		return nil, fmt.Errorf("probe core: %w", err)
	}
	if m["core.arrive_jjj_ns"], _, err = timeArrivals("J_J_J", tasks, false, true); err != nil {
		return nil, fmt.Errorf("probe core: %w", err)
	}
	if m["core.arrive_overload_ns"], _, err = timeArrivals("J_N_N", heavy, true, false); err != nil {
		return nil, fmt.Errorf("probe core: %w", err)
	}

	combo, err := core.ParseConfig("J_J_N")
	if err != nil {
		return nil, fmt.Errorf("probe core: %w", err)
	}
	ctrl, err := core.NewController(combo, liveProcs)
	if err != nil {
		return nil, fmt.Errorf("probe core: %w", err)
	}
	t0 := tasks[0]
	report := []sched.EntryRef{{Stage: 0, Proc: t0.Subtasks[0].Processor}}
	perCall := make([]float64, 0, batches)
	job := int64(0)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < ctrlBatch; i++ {
			ref := sched.JobRef{Task: t0.ID, Job: job}
			if !ctrl.Arrive(t0, job, 0).Accept {
				return nil, fmt.Errorf("probe core: idle-reset job %d refused", job)
			}
			report[0].Ref = ref
			ctrl.IdleReset(report)
			ctrl.ExpireJob(ref)
			job++
		}
		perCall = append(perCall, float64(time.Since(start))/ctrlBatch)
	}
	m["core.idle_reset_ns"] = median(perCall)
	return m, nil
}
