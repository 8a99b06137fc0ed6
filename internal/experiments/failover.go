package experiments

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/spec"
)

// failoverBursts is the number of submit bursts before the kill, after the
// failover and after the recovery; failoverSettle the pause between bursts.
const (
	failoverBursts = 3
	failoverSettle = 50 * time.Millisecond
)

// failoverTasks is the sweep's fixed workload: three processors, every stage
// placed on any processor declares a replica elsewhere, so no single node
// loss can withdraw a task — the failover must preserve everything.
func failoverTasks() []*sched.Task {
	return []*sched.Task{
		{
			ID: "cam", Kind: sched.Aperiodic,
			Deadline: 80 * time.Millisecond, MeanInterarrival: 60 * time.Millisecond,
			Subtasks: []sched.Subtask{
				{Index: 0, Exec: 2 * time.Millisecond, Processor: 0, Replicas: []int{2}},
				{Index: 1, Exec: time.Millisecond, Processor: 1, Replicas: []int{2}},
			},
		},
		{
			ID: "lidar", Kind: sched.Aperiodic,
			Deadline: 60 * time.Millisecond, MeanInterarrival: 50 * time.Millisecond,
			Subtasks: []sched.Subtask{
				{Index: 0, Exec: 2 * time.Millisecond, Processor: 1, Replicas: []int{0}},
			},
		},
		{
			ID: "fuse", Kind: sched.Aperiodic,
			Deadline: 100 * time.Millisecond, MeanInterarrival: 80 * time.Millisecond,
			Subtasks: []sched.Subtask{
				{Index: 0, Exec: 2 * time.Millisecond, Processor: 2, Replicas: []int{0}},
				{Index: 1, Exec: time.Millisecond, Processor: 0, Replicas: []int{1}},
			},
		},
	}
}

// FailoverTrialResult is one kill-a-node trial's outcome.
type FailoverTrialResult struct {
	// Victim is the killed processor; Node its node name.
	Victim int    `json:"victim"`
	Node   string `json:"node"`
	// InFlightAtKill is Released − Completed the instant before the kill:
	// the admitted jobs the failover must not lose.
	InFlightAtKill int64 `json:"in_flight_at_kill"`
	// Detection is kill → the heartbeat detector's WatchNodeDown
	// declaration; FailoverLatency is the failover transaction's duration
	// (Quiesce the admission-quiesce span within it); TotalOutage is kill →
	// failover complete, the span a task homed on the victim had no home.
	Detection       time.Duration `json:"detection_ns"`
	FailoverLatency time.Duration `json:"failover_ns"`
	Quiesce         time.Duration `json:"quiesce_ns"`
	TotalOutage     time.Duration `json:"total_outage_ns"`
	// Redelivered counts stranded jobs re-pushed onto survivors;
	// RedeliveryLost counts stranded jobs with no surviving replica (zero
	// here by construction); ReplayedSubmits the submissions deferred during
	// the transaction.
	Redelivered     int `json:"redelivered"`
	RedeliveryLost  int `json:"redelivery_lost"`
	ReplayedSubmits int `json:"replayed_submits"`
	// Rehomed counts the stage moves off the dead processor; Withdrawn the
	// tasks lost with it (zero here by construction).
	Rehomed   int `json:"rehomed_stages"`
	Withdrawn int `json:"withdrawn_tasks"`
	// Recovery is the RecoverNode duration (fresh node + redeploy).
	Recovery time.Duration `json:"recovery_ns"`
	// Epoch is the final configuration epoch (the failover bumps it once).
	Epoch int64 `json:"epoch"`
	// Arrived through Lost are the run totals after drain and settle; Lost
	// is Released − Completed, the zero-loss verdict.
	Arrived   int64 `json:"arrived"`
	Released  int64 `json:"released"`
	Skipped   int64 `json:"skipped"`
	Completed int64 `json:"completed"`
	Lost      int64 `json:"lost"`
	// AuditClean reports the post-run admission-state audit (active ledger
	// and warm-standby mirror).
	AuditClean bool `json:"audit_clean"`
	// NodeDownSeen and NodeRecoveredSeen report the watch stream carried the
	// failure-plane lifecycle events; WatchEvents counts all events.
	NodeDownSeen      bool  `json:"node_down_seen"`
	NodeRecoveredSeen bool  `json:"node_recovered_seen"`
	WatchEvents       int64 `json:"watch_events"`
	// Wall is the trial's wall-clock duration.
	Wall time.Duration `json:"wall_ns"`
}

// FailoverReport is the sweep's outcome, one result per victim.
type FailoverReport struct {
	Experiment string `json:"experiment"`
	// Verdict is Passed, stored so the JSON document carries it.
	Verdict bool                  `json:"passed"`
	Results []FailoverTrialResult `json:"results"`
}

// RunFailover executes the kill-a-node sweep: each trial starts a fresh live
// cluster (T_T_T), pumps traffic, abruptly kills one application node with
// admitted jobs in flight, waits for the heartbeat detector to declare it
// dead, runs the zero-loss failover, recovers the node, and audits the
// admission state. One trial per processor of the built-in workload, so every
// placement geometry (home, replica target, bystander) is exercised.
func RunFailover() (*FailoverReport, error) {
	rep := &FailoverReport{Experiment: "failover", Verdict: true}
	for victim := 0; victim < 3; victim++ {
		r, err := runFailoverTrial(victim)
		if err != nil {
			return nil, fmt.Errorf("experiments: failover victim %d: %w", victim, err)
		}
		rep.Results = append(rep.Results, r)
		if r.Lost != 0 || !r.AuditClean || r.RedeliveryLost != 0 || r.Withdrawn != 0 ||
			!r.NodeDownSeen || !r.NodeRecoveredSeen {
			rep.Verdict = false
		}
	}
	return rep, nil
}

// Passed reports whether every trial met the sweep's hard obligations: zero
// admitted-job loss, a clean admission-state audit, no task withdrawn, and
// both failure-plane watch events observed.
func (rep *FailoverReport) Passed() bool { return rep.Verdict }

func runFailoverTrial(victim int) (FailoverTrialResult, error) {
	res := FailoverTrialResult{Victim: victim}
	tasks := failoverTasks()
	w := spec.FromTasks("failover", 3, tasks)
	start := time.Now()
	c, err := cluster.Start(cluster.Options{
		Workload: w, Seed: 23,
		Config: core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask},
	})
	if err != nil {
		return res, err
	}
	defer c.Close()
	res.Node = c.Apps[victim].Name

	watch, err := c.Watch(core.WatchOptions{Buffer: 1 << 14})
	if err != nil {
		return res, err
	}
	var watchEvents atomic.Int64
	downCh := make(chan time.Time, 1)
	var recoveredSeen atomic.Bool
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for ev := range watch.Events() {
			watchEvents.Add(1)
			switch ev.Kind {
			case core.WatchNodeDown:
				select {
				case downCh <- time.Now():
				default:
				}
			case core.WatchNodeRecovered:
				recoveredSeen.Store(true)
			}
		}
	}()

	// Burst the full task set; repeats put several jobs of each task in
	// flight at once. Submissions the AC rejects still count as arrivals.
	burst := func(repeat int) error {
		ids := make([]string, 0, repeat*len(tasks))
		for i := 0; i < repeat; i++ {
			for _, t := range c.Tasks() {
				ids = append(ids, t.ID)
			}
		}
		_, err := c.SubmitBatch(ids)
		return err
	}
	for i := 0; i < failoverBursts; i++ {
		if err := burst(2); err != nil {
			return res, err
		}
		time.Sleep(failoverSettle)
	}

	// A final burst with no settle, so the kill lands with jobs mid-chain.
	if err := burst(3); err != nil {
		return res, err
	}
	snap := c.Snapshot()
	res.InFlightAtKill = snap.Released - snap.Completed

	killAt := time.Now()
	if err := c.KillNode(victim); err != nil {
		return res, err
	}
	select {
	case at := <-downCh:
		res.Detection = at.Sub(killAt)
		res.NodeDownSeen = true
	case <-time.After(10 * time.Second):
		return res, fmt.Errorf("heartbeat detector never declared node %d down", victim)
	}
	rep, err := c.Failover(victim)
	if err != nil {
		return res, err
	}
	res.TotalOutage = time.Since(killAt)
	res.FailoverLatency = rep.Duration
	res.Quiesce = rep.Quiesce
	res.Redelivered = rep.Redelivered
	res.RedeliveryLost = rep.Lost
	res.ReplayedSubmits = rep.ReplayedSubmits
	for _, stages := range rep.Rehomed {
		res.Rehomed += len(stages)
	}
	res.Withdrawn = len(rep.Withdrawn)

	// Traffic against the re-homed placement, then recover the node and
	// pump again: the recovered node must serve its old processor.
	for i := 0; i < failoverBursts; i++ {
		if err := burst(2); err != nil {
			return res, err
		}
		time.Sleep(failoverSettle)
	}
	recoverAt := time.Now()
	if err := c.RecoverNode(victim); err != nil {
		return res, err
	}
	res.Recovery = time.Since(recoverAt)
	for i := 0; i < failoverBursts; i++ {
		if err := burst(2); err != nil {
			return res, err
		}
		time.Sleep(failoverSettle)
	}

	c.Drain(5 * time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := c.Snapshot()
		if s.Released == s.Completed {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	final := c.Snapshot()
	res.Arrived, res.Released, res.Skipped, res.Completed =
		final.Arrived, final.Released, final.Skipped, final.Completed
	res.Lost = final.Released - final.Completed
	res.Epoch = final.Epoch
	res.AuditClean = c.AuditAdmissionState() == nil
	watch.Cancel()
	<-watchDone
	res.NodeRecoveredSeen = recoveredSeen.Load()
	res.WatchEvents = watchEvents.Load()
	res.Wall = time.Since(start)
	return res, nil
}

// WriteTable formats the sweep as a table.
func (rep *FailoverReport) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "Failover: heartbeat detection, zero-loss node failover and recovery (one live cluster per victim)")
	fmt.Fprintf(w, "%-7s %-9s %9s %9s %9s %9s %6s %7s %8s %9s %6s %6s %6s\n",
		"victim", "inflight", "detect", "failover", "quiesce", "recover",
		"redel", "rehomed", "arrived", "completed", "lost", "audit", "epoch")
	for _, r := range rep.Results {
		audit := "clean"
		if !r.AuditClean {
			audit = "DIRTY"
		}
		fmt.Fprintf(w, "%-7d %-9d %9s %9s %9s %9s %6d %7d %8d %9d %6d %6s %6d\n",
			r.Victim, r.InFlightAtKill,
			r.Detection.Round(time.Millisecond), r.FailoverLatency.Round(time.Millisecond),
			r.Quiesce.Round(time.Millisecond), r.Recovery.Round(time.Millisecond),
			r.Redelivered, r.Rehomed, r.Arrived, r.Completed, r.Lost, audit, r.Epoch)
	}
	fmt.Fprintln(w)
}
