package workload

// This file retains the map-based generator exactly as it stood before
// Generate moved to flat arrays and slabs: a map of stage weights, a map of
// per-processor stage lists, one fmt.Sprintf per ID and one heap object per
// task, subtask list and replica list. It is the ground truth for the
// differential tests (TestGenerateMatchesReference, FuzzGenerate), which
// require reflect.DeepEqual output from both. It is an oracle, not product,
// so it lives in a test file.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sched"
)

// referenceGenerate is the map-based Generate.
func referenceGenerate(p Params) ([]*sched.Task, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	total := p.NumAperiodic + p.NumPeriodic
	tasks := make([]*sched.Task, 0, total)

	type stageRef struct {
		task  int
		stage int
	}
	weights := make(map[stageRef]float64)
	byProc := make(map[int][]stageRef)

	for i := 0; i < total; i++ {
		kind := sched.Periodic
		name := fmt.Sprintf("P%d", i-p.NumAperiodic)
		if i < p.NumAperiodic {
			kind = sched.Aperiodic
			name = fmt.Sprintf("A%d", i)
		}
		deadline := p.MinDeadline + time.Duration(rng.Int63n(int64(p.MaxDeadline-p.MinDeadline)+1))
		t := &sched.Task{
			ID:       name,
			Kind:     kind,
			Deadline: deadline,
		}
		if kind == sched.Periodic {
			t.Period = deadline
			t.Phase = time.Duration(rng.Int63n(int64(t.Period)))
		} else {
			t.MeanInterarrival = deadline
		}
		numStages := p.MinStages + rng.Intn(p.MaxStages-p.MinStages+1)
		for s := 0; s < numStages; s++ {
			home := p.HomeProcs[rng.Intn(len(p.HomeProcs))]
			replica := pickReplica(rng, p.ReplicaProcs, home)
			t.Subtasks = append(t.Subtasks, sched.Subtask{
				Index:     s,
				Processor: home,
				Replicas:  []int{replica},
				Exec:      time.Nanosecond,
			})
			ref := stageRef{task: i, stage: s}
			w := rng.Float64()
			for w == 0 {
				w = rng.Float64()
			}
			weights[ref] = w
			byProc[home] = append(byProc[home], ref)
		}
		tasks = append(tasks, t)
	}

	for _, refs := range byProc {
		var sum float64
		for _, r := range refs {
			sum += weights[r]
		}
		for _, r := range refs {
			t := tasks[r.task]
			util := weights[r] / sum * p.TargetUtil
			exec := time.Duration(util * float64(t.Deadline))
			if exec <= 0 {
				exec = time.Microsecond
			}
			t.Subtasks[r.stage].Exec = exec
		}
	}

	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("workload: generated invalid task: %w", err)
		}
	}
	sched.AssignEDMSPriorities(tasks)
	return tasks, nil
}
