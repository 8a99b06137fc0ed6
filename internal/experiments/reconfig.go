package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// ReconfigOptions parameterizes the reconfiguration experiment: random
// Figure 5 workloads run under the From combination, swap to To at half the
// horizon through the epoch-versioned quiesce protocol, and finish under the new
// configuration. The experiment measures the cost of reconfiguring a loaded
// system: quiesce latency, arrivals deferred across the swap, in-flight
// jobs preserved, and — the hard guarantee — that no admitted job is lost.
type ReconfigOptions struct {
	// From and To are the combinations before and after the swap. Defaults:
	// T_N_N → J_J_J, the minimal static configuration to the fully dynamic
	// one.
	From, To core.Config
	// Sets is the number of random task sets (default 5).
	Sets int
	// Horizon is the workload duration (default 2 minutes).
	Horizon time.Duration
	// Workers bounds concurrent trials, as in FigureOptions.
	Workers int
}

// withDefaults fills unset options.
func (o ReconfigOptions) withDefaults() ReconfigOptions {
	if (o.From == core.Config{}) {
		o.From = core.Config{AC: core.StrategyPerTask, IR: core.StrategyNone, LB: core.StrategyNone}
	}
	if (o.To == core.Config{}) {
		o.To = core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}
	}
	if o.Sets == 0 {
		o.Sets = 5
	}
	if o.Horizon == 0 {
		o.Horizon = 2 * time.Minute
	}
	return o
}

// ReconfigResult is one task set's outcome.
type ReconfigResult struct {
	// Set is the task-set number.
	Set int `json:"set"`
	// Report is the swap's protocol report (quiesce latency, deferred
	// arrivals, in-flight jobs preserved, reservations rebased).
	Report core.ReconfigReport `json:"report"`
	// Arrived, Released, Skipped and Completed are the run totals across
	// both configurations.
	Arrived   int64 `json:"arrived"`
	Released  int64 `json:"released"`
	Skipped   int64 `json:"skipped"`
	Completed int64 `json:"completed"`
	// Lost is Released − Completed after the drain: admitted jobs that
	// never finished. The protocol guarantees zero.
	Lost int64 `json:"lost"`
	// Ratio is the run's overall accepted utilization ratio.
	Ratio float64 `json:"ratio"`
}

// RunReconfig executes the reconfiguration experiment.
func RunReconfig(opts ReconfigOptions) ([]ReconfigResult, error) {
	opts = opts.withDefaults()
	if err := opts.From.Validate(); err != nil {
		return nil, err
	}
	if err := opts.To.Validate(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers < 0 {
		workers = ResolveWorkers(workers)
	}
	results := make([]ReconfigResult, opts.Sets)
	err := runTrials(opts.Sets, workers, func(set int) error {
		p := workload.Figure5Params(set)
		tasks, err := workload.Generate(p)
		if err != nil {
			return fmt.Errorf("experiments: reconfig set %d: %w", set, err)
		}
		sim, err := core.NewSimSystem(core.SimConfig{
			Strategies: opts.From,
			NumProcs:   workload.MaxProc(tasks) + 1,
			Horizon:    opts.Horizon,
			Seed:       p.Seed ^ 0x5DEECE66D,
		}, tasks)
		if err != nil {
			return fmt.Errorf("experiments: reconfig set %d: %w", set, err)
		}
		rep, err := sim.ScheduleReconfig(opts.Horizon/2, opts.To)
		if err != nil {
			return fmt.Errorf("experiments: reconfig set %d: %w", set, err)
		}
		m := sim.Run()
		results[set] = ReconfigResult{
			Set:       set,
			Report:    *rep,
			Arrived:   m.Total.Arrived,
			Released:  m.Total.Released,
			Skipped:   m.Total.Skipped,
			Completed: m.Total.Completed,
			Lost:      m.Total.Released - m.Total.Completed,
			Ratio:     m.AcceptedUtilizationRatio(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// writeReconfig formats the experiment as a table.
func writeReconfig(w io.Writer, title string, results []ReconfigResult) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-4s %-8s %-8s %10s %9s %9s %9s %6s %7s\n",
		"set", "from", "to", "quiesce", "deferred", "inflight", "released", "lost", "ratio")
	for _, r := range results {
		fmt.Fprintf(w, "%-4d %-8s %-8s %10s %9d %9d %9d %6d %7.3f\n",
			r.Set, r.Report.From, r.Report.To, r.Report.Quiesce,
			r.Report.Deferred, r.Report.InFlightBefore, r.Released, r.Lost, r.Ratio)
	}
	fmt.Fprintln(w)
}
