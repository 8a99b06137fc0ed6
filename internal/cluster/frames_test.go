package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/spec"
)

// benchShape is the repo benchmark's live deployment (benchmark/live.go): 12
// two-stage tasks over 3 processors, stage s of task i homed on processor
// (i+s) mod 3 with one replica on the next.
func benchShape(t *testing.T, periodic bool, exec, deadline time.Duration) (*spec.Workload, []string) {
	t.Helper()
	const procs, n, stages = 3, 12, 2
	tasks := make([]*sched.Task, n)
	ids := make([]string, n)
	for i := range tasks {
		ids[i] = fmt.Sprintf("t%02d", i)
		tk := &sched.Task{ID: ids[i], Deadline: deadline, Kind: sched.Aperiodic, MeanInterarrival: deadline}
		if periodic {
			tk.Kind, tk.Period, tk.MeanInterarrival = sched.Periodic, deadline, 0
		}
		for s := 0; s < stages; s++ {
			home := (i + s) % procs
			tk.Subtasks = append(tk.Subtasks, sched.Subtask{
				Index: s, Exec: exec, Processor: home, Replicas: []int{(home + 1) % procs},
			})
		}
		tasks[i] = tk
	}
	sched.AssignEDMSPriorities(tasks)
	return spec.FromTasks("bench-shape", procs, tasks), ids
}

// framesPerJob runs jobs arrivals at 300 per second, round-robin over the
// tasks, waits until every one is rejected or completed, and returns the ORB
// frames all nodes sent in between, per job. Heartbeats are part of the
// count, as they are of the load.
func framesPerJob(t *testing.T, cfg core.Config, wl *spec.Workload, ids []string, execScale float64, jobs int) float64 {
	t.Helper()
	c, err := Start(Options{Workload: wl, Config: cfg, ExecScale: execScale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	watch, err := c.Watch(core.WatchOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	settled := make(chan struct{}, 1<<16)
	go func() {
		for ev := range watch.Events() {
			if ev.Kind == core.WatchRejected || ev.Kind == core.WatchCompleted {
				settled <- struct{}{}
			}
		}
	}()
	run := func(n int) {
		t.Helper()
		start := time.Now()
		for i := 0; i < n; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second / 300)))
			if _, err := c.Submit(ids[i%len(ids)]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			select {
			case <-settled:
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d jobs settled", i, n)
			}
		}
	}
	frames := func() (n int64) {
		for _, s := range c.TransportStats() {
			n += s.ORB.FramesSent
		}
		return n
	}
	// Dial every connection and fill the per-task caches first.
	run(3 * len(ids))
	before := frames()
	run(jobs)
	return float64(frames()-before) / float64(jobs)
}

// TestFramesPerJob pins what addressed forwarding buys: on J_J_J a settled
// job costs at most 6 ORB frames across the cluster (TaskArrive, Accept,
// Release, Trigger and Done each cross once where they cross at all, plus
// idle-reset reports and heartbeats), where broadcasting Accept, Release and
// Trigger to every node wired for their type cost 9.2.
func TestFramesPerJob(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}
	wl, ids := benchShape(t, false, 20*time.Microsecond, 200*time.Millisecond)
	if got := framesPerJob(t, cfg, wl, ids, 1, 300); got > 6 {
		t.Errorf("%.2f ORB frames per settled job on J_J_J, want at most 6", got)
	} else {
		t.Logf("%.2f ORB frames per settled job on J_J_J", got)
	}
}
