package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/configengine"
	"repro/internal/core"
	"repro/internal/workload"
)

// This file is the experiment harness: one registry that rtmw-bench's usage
// text, dispatch and "all" are derived from. Adding an experiment is one
// entry here; nothing in cmd/rtmw-bench names an experiment.

// Params is rtmw-bench's flag set, one field per flag. Every entry reads the
// flags its summary or the flag help names and ignores the rest.
type Params struct {
	Sets     int           // -sets: random task sets per sweep point
	Horizon  time.Duration // -horizon: virtual duration per run; zero is the experiment's own default
	Duration time.Duration // -duration: live overhead run duration
	Pings    int           // -pings: round trips for the communication-delay estimate
	Parallel int           // -parallel: trial workers; below 1 is one per CPU
	Points   string        // -points: scale sweep PROCSxTASKS pairs
	From, To string        // -from, -to: reconfig AC_IR_LB combinations
	NoLive   bool          // -nolive: skip live-cluster legs
	CSV      bool          // -csv: append CSV series to the figure tables
	// Args are the arguments after the subcommand name: the sub-flags of an
	// entry that takes its own.
	Args []string
}

// Report is one experiment's outcome. Marshaled with encoding/json it is the
// experiment's JSON document, whose "experiment" key carries the entry name.
type Report interface {
	// WriteTable writes the human-readable rendering.
	WriteTable(w io.Writer)
	// Passed is the experiment's acceptance verdict; an experiment that only
	// measures always passes.
	Passed() bool
}

// Entry is one registered experiment.
type Entry struct {
	// Name is the rtmw-bench subcommand; Summary its one-line usage text.
	Name, Summary string
	// Run executes the experiment; with a non-nil error the Report is not to
	// be used.
	Run func(Params) (Report, error)
	// OwnArgs marks an entry that needs arguments of its own (Params.Args)
	// and therefore stays out of "all".
	OwnArgs bool
}

// ErrUsage marks an invocation mistake (bad sub-flags) as opposed to a run
// failure: rtmw-bench prints usage and exits 2.
var ErrUsage = errors.New("usage")

// Registry returns every experiment in usage (and "all") order.
func Registry() []Entry {
	return []Entry{
		{Name: "table1", Summary: "Table 1 criteria → strategy mapping", Run: runTable1},
		figureEntry("figure5", "accepted utilization ratio, balanced workloads (-sets, -horizon, -parallel, -csv)",
			"Figure 5: accepted utilization ratio, random balanced workloads", workload.Figure5Params, figure5Findings),
		figureEntry("figure6", "accepted utilization ratio, imbalanced workloads (-sets, -horizon, -parallel, -csv)",
			"Figure 6: accepted utilization ratio, imbalanced workloads", workload.Figure6Params, figure6Findings),
		{Name: "overhead", Summary: "Figure 7/8 service overhead table (live, TCP; -duration, -pings)", Run: func(p Params) (Report, error) {
			return RunOverhead(OverheadOptions{Duration: p.Duration, PingCount: p.Pings})
		}},
		{Name: "ablation", Summary: "AUB vs deferrable-server admission, Section 2 (-parallel)", Run: func(p Params) (Report, error) {
			results, err := RunAblationAUBvsDS(AblationOptions{Seeds: 10, Workers: ResolveWorkers(p.Parallel)})
			return series[AblationResult]{Experiment: "ablation", Results: results, table: writeAblation}, err
		}},
		{Name: "scale", Summary: "large-scenario throughput sweep over the pooled DES core (-points, -horizon default 2s)", Run: func(p Params) (Report, error) {
			pts, err := ParseScalePoints(p.Points)
			if err != nil {
				return nil, err
			}
			results, err := RunScale(ScaleOptions{Points: pts, Horizon: p.Horizon})
			title := fmt.Sprintf("Scale sweep: simulated middleware throughput by platform size (points %s)", p.Points)
			return series[ScaleResult]{Experiment: "scale", Results: results, table: func(w io.Writer, rs []ScaleResult) { writeScale(w, title, rs) }}, err
		}},
		{Name: "reconfig", Summary: "mid-run strategy swap: quiesce latency + zero job loss (-from, -to, -sets, -horizon default 2m)", Run: runReconfig},
		{Name: "churn", Summary: "open-world task churn: AddTasks/RemoveTasks under load, sim sweep + live smoke (-sets, -horizon default 2m, -nolive)", Run: runChurn},
		{Name: "failover", Summary: "kill-a-node chaos sweep: zero-loss failover, recovery (live)", Run: func(Params) (Report, error) {
			return RunFailover()
		}},
		{Name: "autopilot", Summary: "closed-loop controller vs every static combination on regime-change scenarios (-nolive)", Run: func(p Params) (Report, error) {
			return RunAutopilot(AutopilotOptions{Workers: ResolveWorkers(p.Parallel), Live: !p.NoLive})
		}},
		{Name: "scenario", Summary: "declarative scenario spec against sim and/or live bindings: scenario -spec FILE [-binding sim|live|both] [-record FILE] [-timescale F] | scenario -replay FILE",
			Run: runScenarioArgs, OwnArgs: true},
	}
}

// series is the report of a sweep that is a list of rows: the rows are the
// JSON document's "results" and table renders them. A sweep that only
// measures has a nil Verdict: it passes, and its document has no "passed" key.
type series[T any] struct {
	Experiment string `json:"experiment"`
	Verdict    *bool  `json:"passed,omitempty"`
	Results    []T    `json:"results"`
	table      func(io.Writer, []T)
}

func (s series[T]) WriteTable(w io.Writer) { s.table(w, s.Results) }
func (s series[T]) Passed() bool           { return s.Verdict == nil || *s.Verdict }

// table1Report is Table 1 plus the Figure 2 list of valid combinations.
type table1Report struct {
	Experiment string        `json:"experiment"`
	Valid      []core.Config `json:"valid_combinations"`
}

func runTable1(Params) (Report, error) {
	return table1Report{"table1", core.AllCombinations()}, nil
}

func (r table1Report) WriteTable(w io.Writer) {
	fmt.Fprintln(w, configengine.RenderTable1())
	fmt.Fprintf(w, "Valid strategy combinations (Figure 2): %d of 18; AC-per-task with IR-per-job is contradictory.\n", len(r.Valid))
}

func (table1Report) Passed() bool { return true }

// figureEntry is a Figure 5/6 reproduction. A run at the paper's parameters
// or beyond (paperSets task sets of paperHorizon each) carries a verdict:
// findings lists the paper's findings the results contradict, and there must
// be none. Anything smaller is a smoke run and carries none — several
// findings are statistical and do not separate over a few short sets.
func figureEntry(name, summary, title string, params func(set int) workload.Params, findings func([]ComboResult) []string) Entry {
	return Entry{Name: name, Summary: summary, Run: func(p Params) (Report, error) {
		opts := FigureOptions{Sets: p.Sets, Horizon: p.Horizon, Workers: ResolveWorkers(p.Parallel)}.withDefaults()
		results, err := runFigure(params, opts)
		if err != nil {
			return nil, err
		}
		title := fmt.Sprintf("%s (%d sets, %v, %d workers)", title, opts.Sets, opts.Horizon, opts.Workers)
		rep := series[ComboResult]{Experiment: name, Results: results}
		var failed []string
		if opts.Sets >= paperSets && opts.Horizon >= paperHorizon {
			failed = findings(results)
			ok := len(failed) == 0
			rep.Verdict = &ok
		}
		rep.table = func(w io.Writer, rs []ComboResult) {
			fmt.Fprintln(w, RenderFigure(title, rs))
			for _, f := range failed {
				fmt.Fprintf(w, "not reproduced: %s\n", f)
			}
			if p.CSV {
				fmt.Fprintln(w, RenderCSV(rs))
			}
		}
		return rep, nil
	}}
}

func runReconfig(p Params) (Report, error) {
	from, err := core.ParseConfig(p.From)
	if err != nil {
		return nil, fmt.Errorf("-from: %w", err)
	}
	to, err := core.ParseConfig(p.To)
	if err != nil {
		return nil, fmt.Errorf("-to: %w", err)
	}
	opts := ReconfigOptions{From: from, To: to, Sets: p.Sets, Horizon: p.Horizon, Workers: ResolveWorkers(p.Parallel)}.withDefaults()
	results, err := RunReconfig(opts)
	ok := true
	for _, r := range results {
		ok = ok && r.Passed
	}
	title := fmt.Sprintf("Reconfiguration: %s -> %s at %v of %v (%d sets)", from, to, opts.Horizon/2, opts.Horizon, opts.Sets)
	return series[ReconfigResult]{"reconfig", &ok, results, func(w io.Writer, rs []ReconfigResult) { writeReconfig(w, title, rs) }}, err
}

func runChurn(p Params) (Report, error) {
	opts := ChurnOptions{Sets: p.Sets, Horizon: p.Horizon, Workers: ResolveWorkers(p.Parallel)}.withDefaults()
	results, err := RunChurn(opts)
	if err != nil {
		return nil, err
	}
	rep := &ChurnReport{Experiment: "churn", Verdict: true, Results: results,
		title: fmt.Sprintf("Open-world churn: tenants joining/leaving over %v (%d sets, %d workers)", opts.Horizon, opts.Sets, opts.Workers)}
	for _, r := range results {
		rep.Verdict = rep.Verdict && r.Passed
	}
	if !p.NoLive {
		if rep.Live, err = RunChurnLive(); err != nil {
			return nil, err
		}
		rep.Verdict = rep.Verdict && rep.Live.Passed
	}
	return rep, nil
}
