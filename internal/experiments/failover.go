package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/scenario"
	"repro/internal/spec"
)

// failoverWorkload is the sweep's fixed workload: three processors, every
// stage placed on any processor declares a replica elsewhere, so no single
// node loss can withdraw a task — the failover must preserve everything.
func failoverWorkload() *spec.Workload {
	ms := func(n int) spec.Duration { return spec.Duration(time.Duration(n) * time.Millisecond) }
	return &spec.Workload{Name: "failover", Processors: 3, Tasks: []spec.TaskSpec{
		{
			ID: "cam", Kind: "aperiodic", Deadline: ms(80), MeanInterarrival: ms(60),
			Subtasks: []spec.SubtaskSpec{
				{Exec: ms(2), Processor: 0, Replicas: []int{2}},
				{Exec: ms(1), Processor: 1, Replicas: []int{2}},
			},
		},
		{
			ID: "lidar", Kind: "aperiodic", Deadline: ms(60), MeanInterarrival: ms(50),
			Subtasks: []spec.SubtaskSpec{{Exec: ms(2), Processor: 1, Replicas: []int{0}}},
		},
		{
			ID: "fuse", Kind: "aperiodic", Deadline: ms(100), MeanInterarrival: ms(80),
			Subtasks: []spec.SubtaskSpec{
				{Exec: ms(2), Processor: 2, Replicas: []int{0}},
				{Exec: ms(1), Processor: 0, Replicas: []int{1}},
			},
		},
	}}
}

// FailoverTrialResult is one kill-a-node trial's outcome: the scenario result
// (run totals after the drain, the admission-state audit of the active
// ledger, the final epoch — the failover bumps it once),
// whose single NodeFaults entry is the victim's record.
type FailoverTrialResult struct {
	// Victim is the killed processor.
	Victim int `json:"victim"`
	*scenario.Result
}

// fault is the victim's record: jobs in flight at the kill, the failover
// transaction's report, the recovery time, the failure-plane events seen.
func (r FailoverTrialResult) fault() scenario.NodeFault { return r.NodeFaults[0] }

// FailoverReport is the sweep's outcome, one result per victim.
type FailoverReport struct {
	Experiment string `json:"experiment"`
	// Verdict is Passed, stored so the JSON document carries it.
	Verdict bool                  `json:"passed"`
	Results []FailoverTrialResult `json:"results"`
}

// RunFailover executes the kill-a-node sweep: each trial is one scenario on
// a fresh live cluster — the tasks' own arrivals plus bursts of the whole
// task set, a kill_node with admitted jobs in flight (the zero-loss failover
// runs synchronously with it), bursts against the re-homed placement, a
// recover_node, bursts again, the drain and the admission-state audit. One
// trial per processor, so every placement geometry (home, replica target,
// bystander) is exercised. The heartbeat detector's latency is not measured
// here: cluster.TestDetectorAnnouncesCallerFailsOver pins detection.
func RunFailover() (*FailoverReport, error) {
	rep := &FailoverReport{Experiment: "failover", Verdict: true}
	for victim := 0; victim < 3; victim++ {
		r, err := runFailoverTrial(victim)
		if err != nil {
			return nil, fmt.Errorf("experiments: failover victim %d: %w", victim, err)
		}
		rep.Results = append(rep.Results, r)
		f := r.fault()
		if !r.Passed || f.Failover.Lost != 0 || len(f.Failover.Withdrawn) != 0 || !f.DownSeen || !f.RecoveredSeen {
			rep.Verdict = false
		}
	}
	return rep, nil
}

// Passed reports whether every trial met the sweep's hard obligations: the
// scenario's invariants (see trialSpec), no task withdrawn, no stranded job
// left without a route, and both failure-plane watch events observed.
func (rep *FailoverReport) Passed() bool { return rep.Verdict }

func runFailoverTrial(victim int) (FailoverTrialResult, error) {
	w := failoverWorkload()
	var all []string
	for _, t := range w.Tasks {
		all = append(all, t.ID)
	}
	// Three bursts settle apart before the kill, after the failover and after
	// the recovery. A burst is the full task set twice over, which puts
	// several jobs of each task in flight at once; arrivals the AC rejects
	// still count.
	const settle = 50 * time.Millisecond
	var inj []scenario.Injection
	at := time.Duration(0)
	bursts := func() {
		for i := 0; i < 3; i++ {
			inj = append(inj, scenario.Injection{At: spec.Duration(at), Kind: scenario.InjectSubmitStorm, IDs: all, Count: 2})
			at += settle
		}
	}
	bursts()
	// A last, larger burst 3 ms ahead of the kill — decided and released, each
	// processor's 6 ms of it half run — so it lands with jobs mid-chain.
	inj = append(inj,
		scenario.Injection{At: spec.Duration(at - 3*time.Millisecond), Kind: scenario.InjectSubmitStorm, IDs: all, Count: 3},
		scenario.Injection{At: spec.Duration(at), Kind: scenario.InjectKillNode, Node: &victim})
	at += settle
	bursts() // against the re-homed placement
	inj = append(inj, scenario.Injection{At: spec.Duration(at), Kind: scenario.InjectRecoverNode, Node: &victim})
	at += settle
	bursts() // the recovered node must serve its old processor

	r, err := scenario.RunLive(trialSpec("failover", "T_T_T", 23, scenario.WorkloadRef{Inline: w}, at, inj), 0, nil)
	if err != nil {
		return FailoverTrialResult{}, err
	}
	return FailoverTrialResult{victim, r}, nil
}

// WriteTable formats the sweep as a table.
func (rep *FailoverReport) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "Failover: zero-loss node failover and recovery (one live cluster per victim)")
	fmt.Fprintf(w, "%-7s %-9s %9s %9s %9s %6s %7s %8s %9s %6s %6s %6s\n",
		"victim", "inflight", "failover", "quiesce", "recover",
		"redel", "rehomed", "arrived", "completed", "lost", "audit", "epoch")
	for _, r := range rep.Results {
		audit := "clean"
		if !r.LedgerClean {
			audit = "DIRTY"
		}
		f := r.fault()
		rehomed := 0
		for _, stages := range f.Failover.Rehomed {
			rehomed += len(stages)
		}
		fmt.Fprintf(w, "%-7d %-9d %9s %9s %9s %6d %7d %8d %9d %6d %6s %6d\n",
			r.Victim, f.InFlightAtKill,
			f.Failover.Duration.Round(time.Millisecond), f.Failover.Quiesce.Round(time.Millisecond),
			f.Recovery.Round(time.Millisecond),
			f.Failover.Redelivered, rehomed, r.Arrived, r.Completed, r.Lost, audit, r.Epoch)
		writeViolations(w, r.Violations)
	}
	fmt.Fprintln(w)
}
