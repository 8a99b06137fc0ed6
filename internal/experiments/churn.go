package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/workload"
)

// ChurnOptions parameterizes the open-world churn sweep: random Figure 5
// workloads run under each strategy combination while tenants — groups of
// three tasks — join every Horizon/12 and leave every Horizon/8 (departures
// lag joins, so the task set grows and shrinks), the tenant-churn /
// rolling-fleet shape open CPS deployments actually see. Each
// join goes through AddTasks (EDMS re-assignment + ledger registration) and
// a SubmitBatch burst; each departure goes through RemoveTasks (ledger
// withdrawal). Every run finishes with the ledger invariant audit, and the
// sweep pins the open-world guarantee: zero admitted jobs lost across any
// number of task arrivals and departures.
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

// ChurnResult is one (combo, set) trial's outcome.
type ChurnResult struct {
	// Combo and Set identify the trial.
	Combo core.Config `json:"combo"`
	Set   int         `json:"set"`
	// TasksAdded and TasksRemoved count the tasks that joined and left
	// mid-run; BatchSubmitted counts the arrivals injected through
	// SubmitBatch bursts at each join.
	TasksAdded     int `json:"tasks_added"`
	TasksRemoved   int `json:"tasks_removed"`
	BatchSubmitted int `json:"batch_submitted"`
	// Arrived, Released, Skipped and Completed are the run totals across the
	// churning task set.
	Arrived   int64 `json:"arrived"`
	Released  int64 `json:"released"`
	Skipped   int64 `json:"skipped"`
	Completed int64 `json:"completed"`
	// Lost is Released − Completed after the drain: admitted jobs that never
	// finished. The open-world protocol guarantees zero.
	Lost int64 `json:"lost"`
	// Ratio is the run's accepted utilization ratio.
	Ratio float64 `json:"accepted_ratio"`
	// WatchEvents and WatchDropped are the lifecycle events observed (and
	// shed) by the trial's watch stream; OrderOK reports that the stream's
	// sequence numbers were strictly increasing.
	WatchEvents  int64 `json:"watch_events"`
	WatchDropped int64 `json:"watch_dropped"`
	OrderOK      bool  `json:"watch_order_ok"`
	// Wall is the wall-clock run time; JobsPerSec the throughput.
	Wall       time.Duration `json:"wall_ns"`
	JobsPerSec float64       `json:"jobs_per_sec"`
}

// ChurnReport is the churn experiment's outcome: the sim sweep and, unless
// skipped, the live smoke.
type ChurnReport struct {
	Experiment string           `json:"experiment"`
	Results    []ChurnResult    `json:"results"`
	Live       *ChurnLiveResult `json:"live,omitempty"`
	title      string
}

// Passed is always true: the sweep's guarantees fail the run as errors.
func (*ChurnReport) Passed() bool { return true }

// tenantTasks synthesizes one joining tenant's task group: small one- or
// two-stage tasks (mostly aperiodic, the paper's open-environment shape)
// pinned to random processors, with deadlines in the Figure 5 range.
func tenantTasks(trial, tenant, count, numProcs int, rng *rand.Rand) ([]*sched.Task, []string) {
	tasks := make([]*sched.Task, 0, count)
	ids := make([]string, 0, count)
	for k := 0; k < count; k++ {
		id := fmt.Sprintf("tenant%d-%d-t%d", trial, tenant, k)
		deadline := time.Duration(100+rng.Intn(300)) * time.Millisecond
		stages := 1 + rng.Intn(2)
		t := &sched.Task{ID: id, Deadline: deadline}
		if rng.Intn(4) == 0 {
			t.Kind = sched.Periodic
			t.Period = deadline
		} else {
			t.Kind = sched.Aperiodic
			t.MeanInterarrival = 2 * deadline
		}
		util := 0.01 + 0.04*rng.Float64()
		for s := 0; s < stages; s++ {
			t.Subtasks = append(t.Subtasks, sched.Subtask{
				Index:     s,
				Exec:      time.Duration(util / float64(stages) * float64(deadline)),
				Processor: rng.Intn(numProcs),
			})
		}
		tasks = append(tasks, t)
		ids = append(ids, id)
	}
	return tasks, ids
}

// RunChurn executes the churn sweep: every (combo, set) trial fans over the
// worker pool, and each trial drives adds, removes and batch submissions at
// exact virtual times through the binding's At hook. A trial fails if any
// lifecycle call errors; ledger inconsistencies panic inside Run's audit.
func RunChurn(opts ChurnOptions) ([]ChurnResult, error) {
	opts = opts.withDefaults()
	for _, combo := range opts.Combos {
		if err := combo.Validate(); err != nil {
			return nil, err
		}
	}
	workers := opts.Workers
	if workers < 0 {
		workers = ResolveWorkers(workers)
	}
	total := len(opts.Combos) * opts.Sets
	results := make([]ChurnResult, total)
	err := runTrials(total, workers, func(trial int) error {
		combo := opts.Combos[trial/opts.Sets]
		set := trial % opts.Sets
		r, err := runChurnTrial(trial, combo, set, opts)
		if err != nil {
			return fmt.Errorf("experiments: churn %s set %d: %w", combo, set, err)
		}
		results[trial] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runChurnTrial executes one churning simulation.
func runChurnTrial(trial int, combo core.Config, set int, opts ChurnOptions) (ChurnResult, error) {
	p := workload.Figure5Params(set)
	tasks, err := workload.Generate(p)
	if err != nil {
		return ChurnResult{}, err
	}
	numProcs := workload.MaxProc(tasks) + 1
	sim, err := core.NewSimSystem(core.SimConfig{
		Strategies: combo,
		NumProcs:   numProcs,
		Horizon:    opts.Horizon,
		Seed:       p.Seed ^ 0x5DEECE66D,
	}, tasks)
	if err != nil {
		return ChurnResult{}, err
	}

	// An always-on watch stream: the trial doubles as an ordering check on
	// the observation plane under churn.
	watch, err := sim.Watch(core.WatchOptions{Buffer: 1 << 16})
	if err != nil {
		return ChurnResult{}, err
	}
	var watchEvents atomic.Int64
	orderOK := atomic.Bool{}
	orderOK.Store(true)
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		var lastSeq int64
		for ev := range watch.Events() {
			if ev.Seq <= lastSeq {
				orderOK.Store(false)
			}
			lastSeq = ev.Seq
			watchEvents.Add(1)
		}
	}()

	res := ChurnResult{Combo: combo, Set: set}
	rng := rand.New(rand.NewSource(p.Seed ^ 0x9E3779B9))
	var tenants [][]string
	var cbErr error
	fail := func(err error) {
		if err != nil && cbErr == nil {
			cbErr = err
		}
	}
	tenant := 0
	addEvery, removeEvery := opts.Horizon/12, opts.Horizon/8
	for at := addEvery; at < opts.Horizon; at += addEvery {
		if err := sim.At(at, func() {
			ts, ids := tenantTasks(trial, tenant, 3, numProcs, rng)
			tenant++
			if err := sim.AddTasks(ts); err != nil {
				fail(err)
				return
			}
			adms, err := sim.SubmitBatch(ids)
			if err != nil {
				fail(err)
				return
			}
			res.TasksAdded += len(ids)
			res.BatchSubmitted += len(adms)
			tenants = append(tenants, ids)
		}); err != nil {
			return res, err
		}
	}
	for at := removeEvery; at < opts.Horizon; at += removeEvery {
		if err := sim.At(at, func() {
			if len(tenants) == 0 {
				return
			}
			ids := tenants[0]
			tenants = tenants[1:]
			if err := sim.RemoveTasks(ids); err != nil {
				fail(err)
				return
			}
			res.TasksRemoved += len(ids)
		}); err != nil {
			return res, err
		}
	}

	start := time.Now()
	m := sim.Run() // the post-run ledger audit panics on inconsistency
	res.Wall = time.Since(start)
	if err := sim.Stop(); err != nil {
		return res, err
	}
	<-watchDone
	if cbErr != nil {
		return res, cbErr
	}

	res.Arrived = m.Total.Arrived
	res.Released = m.Total.Released
	res.Skipped = m.Total.Skipped
	res.Completed = m.Total.Completed
	res.Lost = m.Total.Released - m.Total.Completed
	res.Ratio = m.AcceptedUtilizationRatio()
	res.WatchEvents = watchEvents.Load()
	res.WatchDropped = watch.Dropped()
	res.OrderOK = orderOK.Load()
	if res.Wall > 0 {
		res.JobsPerSec = float64(res.Arrived) / res.Wall.Seconds()
	}
	return res, nil
}

// WriteTable formats the sweep as a table, followed by the live smoke's
// outcome line when it ran.
func (rep *ChurnReport) WriteTable(w io.Writer) {
	fmt.Fprintln(w, rep.title)
	fmt.Fprintf(w, "%-8s %-4s %6s %6s %8s %9s %9s %6s %7s %9s %8s\n",
		"combo", "set", "added", "gone", "arrived", "released", "completed", "lost", "ratio", "watch-ev", "order")
	for _, r := range rep.Results {
		order := "ok"
		if !r.OrderOK {
			order = "BROKEN"
		}
		fmt.Fprintf(w, "%-8s %-4d %6d %6d %8d %9d %9d %6d %7.3f %9d %8s\n",
			r.Combo, r.Set, r.TasksAdded, r.TasksRemoved, r.Arrived, r.Released,
			r.Completed, r.Lost, r.Ratio, r.WatchEvents, order)
	}
	fmt.Fprintln(w)
	if r := rep.Live; r != nil {
		ledger := "clean"
		if !r.LedgerClean {
			ledger = "INCONSISTENT"
		}
		fmt.Fprintf(w,
			"Live churn smoke (%s): %d tasks joined, %d left, epoch %d; arrived %d, released %d, completed %d, lost %d; ledger %s; %d watch events in %v\n\n",
			r.Config, r.TasksAdded, r.TasksRemoved, r.Epoch,
			r.Arrived, r.Released, r.Completed, r.Lost, ledger, r.WatchEvents, r.Wall.Round(time.Millisecond))
	}
}

// ChurnLiveOptions parameterizes the live churn smoke: a small real cluster
// (TCP loopback, T_T_T) that adds two tenants of two tasks each, bursts
// arrivals at them, removes them again, and audits the admission ledger
// afterwards.
type ChurnLiveOptions struct {
	// Settle is the pause after each lifecycle phase, letting arrivals and
	// completions flow (default 150ms).
	Settle time.Duration
}

// ChurnLiveResult is the live smoke's outcome.
type ChurnLiveResult struct {
	// Config is the combination under test.
	Config core.Config `json:"config"`
	// TasksAdded and TasksRemoved count the tenant tasks cycled through the
	// running deployment; Epoch is the final reconfiguration epoch (one per
	// lifecycle delta).
	TasksAdded   int   `json:"tasks_added"`
	TasksRemoved int   `json:"tasks_removed"`
	Epoch        int64 `json:"epoch"`
	// Arrived, Released, Skipped and Completed are the final counters.
	Arrived   int64 `json:"arrived"`
	Released  int64 `json:"released"`
	Skipped   int64 `json:"skipped"`
	Completed int64 `json:"completed"`
	// Lost is Released − Completed after the drain (zero on success).
	Lost int64 `json:"lost"`
	// LedgerClean reports the post-run ledger invariant audit.
	LedgerClean bool `json:"ledger_clean"`
	// WatchEvents counts lifecycle events observed on the live watch stream.
	WatchEvents int64 `json:"watch_events"`
	// Wall is the smoke's wall-clock duration.
	Wall time.Duration `json:"wall_ns"`
}

// RunChurnLive executes the live churn smoke on an in-process cluster.
func RunChurnLive(opts ChurnLiveOptions) (*ChurnLiveResult, error) {
	if opts.Settle == 0 {
		opts.Settle = 150 * time.Millisecond
	}
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask}
	base := []*sched.Task{
		{
			ID: "flow", Kind: sched.Periodic,
			Period: 60 * time.Millisecond, Deadline: 60 * time.Millisecond,
			Subtasks: []sched.Subtask{
				{Index: 0, Exec: 2 * time.Millisecond, Processor: 0, Replicas: []int{1}},
				{Index: 1, Exec: time.Millisecond, Processor: 1},
			},
		},
		{
			ID: "alert", Kind: sched.Aperiodic,
			Deadline: 50 * time.Millisecond, MeanInterarrival: 40 * time.Millisecond,
			Subtasks: []sched.Subtask{
				{Index: 0, Exec: time.Millisecond, Processor: 1},
			},
		},
	}
	w := spec.FromTasks("churn-live", 2, base)
	start := time.Now()
	c, err := cluster.Start(cluster.Options{Workload: w, Config: cfg, Seed: 11})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	watch, err := c.Watch(core.WatchOptions{Buffer: 1 << 14})
	if err != nil {
		return nil, err
	}
	var watchEvents atomic.Int64
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for range watch.Events() {
			watchEvents.Add(1)
		}
	}()

	res := &ChurnLiveResult{Config: cfg}
	if _, err := c.SubmitBatch([]string{"flow", "alert", "alert"}); err != nil {
		return nil, err
	}
	time.Sleep(opts.Settle)

	var tenantIDs [][]string
	rng := rand.New(rand.NewSource(17))
	for n := 0; n < 2; n++ {
		ts, ids := tenantTasks(0, n, 2, 2, rng)
		if err := c.AddTasks(ts); err != nil {
			return nil, err
		}
		if _, err := c.SubmitBatch(ids); err != nil {
			return nil, err
		}
		res.TasksAdded += len(ids)
		tenantIDs = append(tenantIDs, ids)
		time.Sleep(opts.Settle)
	}
	for _, ids := range tenantIDs {
		if err := c.RemoveTasks(ids); err != nil {
			return nil, err
		}
		res.TasksRemoved += len(ids)
	}
	time.Sleep(opts.Settle)
	c.Drain(5 * time.Second)

	// Completions propagate through local Done events; settle until the
	// counters agree or the deadline passes.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap := c.Snapshot()
		if snap.Released == snap.Completed {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	snap := c.Snapshot()
	res.Arrived, res.Released, res.Skipped, res.Completed = snap.Arrived, snap.Released, snap.Skipped, snap.Completed
	res.Lost = snap.Released - snap.Completed
	res.Epoch = snap.Epoch
	ac, err := c.AC()
	if err != nil {
		return nil, err
	}
	res.LedgerClean = ac.AuditLedger() == nil
	watch.Cancel()
	<-watchDone
	res.WatchEvents = watchEvents.Load()
	res.Wall = time.Since(start)
	return res, nil
}
