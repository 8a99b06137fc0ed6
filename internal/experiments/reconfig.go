package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/spec"
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

// ReconfigResult is one task set's outcome: the scenario result — run totals
// across both configurations, Lost (admitted jobs that never finished; the
// protocol guarantees zero), the invariant verdict — whose single Reconfigs
// entry is the swap's protocol report.
type ReconfigResult struct {
	// Set is the task-set number.
	Set int `json:"set"`
	*scenario.Result
}

// Report is the swap's protocol report: quiesce latency, deferred arrivals,
// in-flight jobs preserved, reservations rebased.
func (r ReconfigResult) Report() core.ReconfigReport { return r.Reconfigs[0] }

// trialSpec is the scenario an experiment runs per trial: the workload under
// cfg with arrivals following each task's natural process, the given
// injections, real time on the live binding, and the invariants every mid-run
// operation must keep — no admitted job lost, a clean ledger audit, an
// ordered watch stream.
func trialSpec(name, cfg string, seed int64, w scenario.WorkloadRef, horizon time.Duration, inj []scenario.Injection) *scenario.Spec {
	return &scenario.Spec{
		Name: name, Config: cfg, Horizon: spec.Duration(horizon), Seed: seed, Workload: w, Injections: inj,
		Invariants: &scenario.Invariants{ZeroAdmittedLoss: true, LedgerAudit: true, WatchOrdering: true},
		Live:       scenario.LiveSettings{TimeScale: 1},
	}
}

// figure5Trial is trialSpec over Figure 5 task set number set.
func figure5Trial(name string, cfg core.Config, set int, horizon time.Duration, inj []scenario.Injection) *scenario.Spec {
	seed := workload.Figure5Params(set).Seed ^ 0x5DEECE66D
	return trialSpec(name, cfg.String(), seed, scenario.WorkloadRef{Figure5: &set}, horizon, inj)
}

// RunReconfig executes the reconfiguration experiment: per task set, one
// scenario whose only injection is the mid-horizon reconfigure. An invalid
// combination is rejected before anything runs.
func RunReconfig(opts ReconfigOptions) ([]ReconfigResult, error) {
	opts = opts.withDefaults()
	if err := opts.From.Validate(); err != nil {
		return nil, err
	}
	if err := opts.To.Validate(); err != nil {
		return nil, err
	}
	results := make([]ReconfigResult, opts.Sets)
	err := runTrials(opts.Sets, opts.Workers, func(set int) error {
		r, err := scenario.RunSim(figure5Trial("reconfig", opts.From, set, opts.Horizon, []scenario.Injection{
			{At: spec.Duration(opts.Horizon / 2), Kind: scenario.InjectReconfigure, To: opts.To.String()},
		}), nil)
		if err != nil {
			return fmt.Errorf("experiments: reconfig set %d: %w", set, err)
		}
		results[set] = ReconfigResult{set, r}
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
		rep := r.Report()
		fmt.Fprintf(w, "%-4d %-8s %-8s %10s %9d %9d %9d %6d %7.3f\n",
			r.Set, rep.From, rep.To, rep.Quiesce, rep.Deferred, rep.InFlightBefore, r.Released, r.Lost, r.Ratio)
		writeViolations(w, r.Violations)
	}
	fmt.Fprintln(w)
}
