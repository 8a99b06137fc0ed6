package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/workload"
)

// ChurnOptions parameterizes the open-world churn sweep: random Figure 5
// workloads run under each strategy combination while tenants — groups of
// three tasks — join every Horizon/12 and leave every Horizon/8 (departures
// lag joins, so the task set grows and shrinks), the tenant-churn /
// rolling-fleet shape open CPS deployments actually see. Each trial is one
// scenario: a join is an add_tasks injection (EDMS re-assignment + ledger
// registration) plus a submit_storm at the newcomers, a departure a
// remove_tasks injection (ledger withdrawal), and trialSpec's invariants pin
// the open-world guarantee across any number of arrivals and departures.
type ChurnOptions struct {
	// Combos are the strategy combinations under churn. Default: T_N_N (the
	// minimal static configuration), T_T_T (the engine's default), and J_J_J
	// (fully dynamic).
	Combos []core.Config
	// Sets is the number of random task sets per combo (default 3).
	Sets int
	// Horizon is the workload duration (default 2 minutes).
	Horizon time.Duration
	// Workers bounds concurrent trials, as in FigureOptions.
	Workers int
}

// withDefaults fills unset options.
func (o ChurnOptions) withDefaults() ChurnOptions {
	if len(o.Combos) == 0 {
		o.Combos = []core.Config{
			{AC: core.StrategyPerTask, IR: core.StrategyNone, LB: core.StrategyNone},
			{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask},
			{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob},
		}
	}
	if o.Sets == 0 {
		o.Sets = 3
	}
	if o.Horizon == 0 {
		o.Horizon = 2 * time.Minute
	}
	return o
}

// ChurnResult is one (combo, set) trial's outcome: the scenario result — run
// totals across the churning task set, Lost (the open-world protocol
// guarantees zero), the watch stream's event count and ordering verdict, the
// violated invariants — plus what churned.
type ChurnResult struct {
	// Combo and Set identify the trial.
	Combo core.Config `json:"combo"`
	Set   int         `json:"set"`
	// TasksAdded and TasksRemoved count the tasks that joined and left
	// mid-run; BatchSubmitted counts the arrivals burst at the joiners.
	TasksAdded     int `json:"tasks_added"`
	TasksRemoved   int `json:"tasks_removed"`
	BatchSubmitted int `json:"batch_submitted"`
	// JobsPerSec is arrivals per wall-clock second of the run.
	JobsPerSec float64 `json:"jobs_per_sec"`
	*scenario.Result
}

// ChurnReport is the churn experiment's outcome: the sim sweep and, unless
// skipped, the live smoke.
type ChurnReport struct {
	Experiment string `json:"experiment"`
	// Verdict is Passed, stored so the JSON document carries it.
	Verdict bool             `json:"passed"`
	Results []ChurnResult    `json:"results"`
	Live    *scenario.Result `json:"live,omitempty"`
	title   string
}

// Passed reports whether every trial, and the live smoke when it ran, kept
// its scenario's invariants.
func (rep *ChurnReport) Passed() bool { return rep.Verdict }

// tenantTasks synthesizes one joining tenant's task group: small one- or
// two-stage tasks (mostly aperiodic, the paper's open-environment shape)
// pinned to random processors, with deadlines in the Figure 5 range.
func tenantTasks(set, tenant, count, numProcs int, rng *rand.Rand) ([]spec.TaskSpec, []string) {
	tasks := make([]spec.TaskSpec, 0, count)
	ids := make([]string, 0, count)
	for k := 0; k < count; k++ {
		deadline := time.Duration(100+rng.Intn(300)) * time.Millisecond
		stages := 1 + rng.Intn(2)
		t := spec.TaskSpec{ID: fmt.Sprintf("tenant%d-%d-t%d", set, tenant, k), Deadline: spec.Duration(deadline)}
		if rng.Intn(4) == 0 {
			t.Kind = "periodic"
			t.Period = t.Deadline
		} else {
			t.Kind = "aperiodic"
			t.MeanInterarrival = 2 * t.Deadline
		}
		util := 0.01 + 0.04*rng.Float64()
		for s := 0; s < stages; s++ {
			t.Subtasks = append(t.Subtasks, spec.SubtaskSpec{
				Exec:      spec.Duration(util / float64(stages) * float64(deadline)),
				Processor: rng.Intn(numProcs),
			})
		}
		tasks = append(tasks, t)
		ids = append(ids, t.ID)
	}
	return tasks, ids
}

// tenantChurn is a tenant schedule as scenario injections: a tenant of size
// tasks joins at every instant of joins and is burst at once, and the
// longest-standing tenant leaves at every instant of leaves.
func tenantChurn(set, size, numProcs int, rng *rand.Rand, joins, leaves []time.Duration) []scenario.Injection {
	var inj []scenario.Injection
	var tenants [][]string
	for n, at := range joins {
		tasks, ids := tenantTasks(set, n, size, numProcs, rng)
		tenants = append(tenants, ids)
		inj = append(inj,
			scenario.Injection{At: spec.Duration(at), Kind: scenario.InjectAddTasks, Tasks: tasks},
			scenario.Injection{At: spec.Duration(at), Kind: scenario.InjectSubmitStorm, IDs: ids})
	}
	for n, at := range leaves {
		inj = append(inj, scenario.Injection{At: spec.Duration(at), Kind: scenario.InjectRemoveTasks, IDs: tenants[n]})
	}
	return inj
}

// every lists the instants step, 2·step, … below horizon.
func every(step, horizon time.Duration) []time.Duration {
	var out []time.Duration
	for at := step; at < horizon; at += step {
		out = append(out, at)
	}
	return out
}

// RunChurn executes the churn sweep: every (combo, set) trial fans over the
// worker pool and runs its scenario on the simulation binding. A trial fails
// if its combination is invalid or a lifecycle call errors; a broken
// invariant is reported, not an error.
func RunChurn(opts ChurnOptions) ([]ChurnResult, error) {
	opts = opts.withDefaults()
	joins, leaves := every(opts.Horizon/12, opts.Horizon), every(opts.Horizon/8, opts.Horizon)
	results := make([]ChurnResult, len(opts.Combos)*opts.Sets)
	err := runTrials(len(results), opts.Workers, func(trial int) error {
		combo, set := opts.Combos[trial/opts.Sets], trial%opts.Sets
		p := workload.Figure5Params(set)
		tasks, err := workload.Generate(p)
		if err != nil {
			return err
		}
		r, err := scenario.RunSim(figure5Trial("churn", combo, set, opts.Horizon, tenantChurn(
			set, 3, workload.MaxProc(tasks)+1, rand.New(rand.NewSource(p.Seed^0x9E3779B9)), joins, leaves)), nil)
		if err != nil {
			return fmt.Errorf("experiments: churn %s set %d: %w", combo, set, err)
		}
		res := ChurnResult{
			Combo: combo, Set: set, Result: r,
			TasksAdded: 3 * len(joins), TasksRemoved: 3 * len(leaves), BatchSubmitted: 3 * len(joins),
		}
		if r.Wall > 0 {
			res.JobsPerSec = float64(r.Arrived) / r.Wall.Seconds()
		}
		results[trial] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// WriteTable formats the sweep as a table, followed by the live smoke's
// outcome line when it ran.
func (rep *ChurnReport) WriteTable(w io.Writer) {
	fmt.Fprintln(w, rep.title)
	fmt.Fprintf(w, "%-8s %-4s %6s %6s %8s %9s %9s %6s %7s %9s %8s\n",
		"combo", "set", "added", "gone", "arrived", "released", "completed", "lost", "ratio", "watch-ev", "order")
	for _, r := range rep.Results {
		order := "ok"
		if !r.WatchOrdered {
			order = "BROKEN"
		}
		fmt.Fprintf(w, "%-8s %-4d %6d %6d %8d %9d %9d %6d %7.3f %9d %8s\n",
			r.Combo, r.Set, r.TasksAdded, r.TasksRemoved, r.Arrived, r.Released,
			r.Completed, r.Lost, r.Ratio, r.WatchEvents, order)
		writeViolations(w, r.Violations)
	}
	fmt.Fprintln(w)
	if r := rep.Live; r != nil {
		ledger := "clean"
		if !r.LedgerClean {
			ledger = "INCONSISTENT"
		}
		fmt.Fprintf(w,
			"Live churn smoke (%s): %d tasks joined, %d left, epoch %d; arrived %d, released %d, completed %d, lost %d; ledger %s; %d watch events in %v\n",
			r.Config, liveTenants*liveTenantTasks, liveTenants*liveTenantTasks, r.Epoch,
			r.Arrived, r.Released, r.Completed, r.Lost, ledger, r.WatchEvents, r.Wall.Round(time.Millisecond))
		writeViolations(w, r.Violations)
		fmt.Fprintln(w)
	}
}

// liveTenants tenants of liveTenantTasks tasks each cycle through the live
// smoke, liveSettle apart.
const (
	liveTenants     = 2
	liveTenantTasks = 2
	liveSettle      = 150 * time.Millisecond
)

// RunChurnLive executes the live churn smoke: the failover sweep's small real
// cluster (TCP loopback, T_T_T, real time) is burst once, gains the tenants one
// after the other with a burst at each, loses them again (the final epoch
// counts the four lifecycle deltas), and is audited after the drain.
func RunChurnLive() (*scenario.Result, error) {
	w := failoverWorkload()
	inj := append([]scenario.Injection{{Kind: scenario.InjectSubmitStorm, IDs: []string{"cam", "lidar", "lidar"}}},
		tenantChurn(0, liveTenantTasks, w.Processors, rand.New(rand.NewSource(17)),
			[]time.Duration{liveSettle, 2 * liveSettle}, []time.Duration{3 * liveSettle, 3 * liveSettle})...)
	return scenario.RunLive(trialSpec("churn-live", "T_T_T", 11, scenario.WorkloadRef{Inline: w}, 4*liveSettle, inj), 0, nil)
}
