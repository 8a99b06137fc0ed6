package experiments

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/scenario"
)

// ScenarioOptions parameterizes one declarative scenario execution: which
// bindings run the spec, the live time compression, and an optional journal
// recording.
type ScenarioOptions struct {
	// Spec is the parsed scenario.
	Spec *scenario.Spec
	// Bindings lists the bindings to run, in order: scenario.BindingSim
	// and/or scenario.BindingLive. Default: both, sim first.
	Bindings []string
	// TimeScale overrides the live compression factor (zero uses the
	// spec's).
	TimeScale float64
	// RecordPath, when set, records the run to a journal file. Recording
	// requires exactly one binding — a journal captures one run.
	RecordPath string
}

// ScenarioReport is the execution's outcome across bindings.
type ScenarioReport struct {
	Experiment string `json:"experiment"`
	// Verdict is Passed, stored so the JSON document carries it.
	Verdict bool `json:"passed"`
	// Spec is the executed scenario; each result names it, its configuration
	// and its seed.
	Spec *scenario.Spec `json:"-"`
	// RecordPath echoes the written journal, when recording.
	RecordPath string `json:"journal,omitempty"`
	// Results holds one entry per binding, in execution order.
	Results []*scenario.Result `json:"results"`
}

// Passed reports whether every binding satisfied the invariant block.
func (r *ScenarioReport) Passed() bool { return r.Verdict }

// RunScenario executes a scenario spec against the requested bindings,
// recording a journal when asked. Execution errors abort; invariant
// violations do not — they are reported per binding so callers (the CLI,
// CI) decide the exit status from Passed.
func RunScenario(opts ScenarioOptions) (*ScenarioReport, error) {
	if opts.Spec == nil {
		return nil, fmt.Errorf("experiments: scenario: nil spec")
	}
	bindings := opts.Bindings
	if len(bindings) == 0 {
		bindings = []string{scenario.BindingSim, scenario.BindingLive}
	}
	for _, b := range bindings {
		if b != scenario.BindingSim && b != scenario.BindingLive {
			return nil, fmt.Errorf("experiments: scenario: unknown binding %q", b)
		}
	}
	if opts.RecordPath != "" && len(bindings) != 1 {
		return nil, fmt.Errorf("experiments: scenario: recording requires exactly one binding, got %d", len(bindings))
	}

	rep := &ScenarioReport{Experiment: "scenario", Verdict: true, Spec: opts.Spec, RecordPath: opts.RecordPath}
	for _, b := range bindings {
		var rec *scenario.Recorder
		var recFile *os.File
		if opts.RecordPath != "" {
			h, err := scenario.RecordHeader(opts.Spec, b, opts.TimeScale)
			if err != nil {
				return nil, err
			}
			recFile, err = os.Create(opts.RecordPath)
			if err != nil {
				return nil, fmt.Errorf("experiments: scenario: %w", err)
			}
			rec = scenario.NewRecorder(recFile, h)
		}
		var res *scenario.Result
		var err error
		switch b {
		case scenario.BindingSim:
			res, err = scenario.RunSim(opts.Spec, rec)
		case scenario.BindingLive:
			res, err = scenario.RunLive(opts.Spec, opts.TimeScale, rec)
		}
		if recFile != nil {
			if cerr := recFile.Close(); err == nil && cerr != nil {
				err = cerr
			}
			if rerr := rec.Err(); err == nil && rerr != nil {
				err = rerr
			}
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q on %s: %w", opts.Spec.Name, b, err)
		}
		rep.Results = append(rep.Results, res)
		rep.Verdict = rep.Verdict && res.Passed
	}
	return rep, nil
}

// WriteTable formats the report as a table plus per-binding verdicts.
func (rep *ScenarioReport) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Scenario %q (%s, horizon %v, seed %d)\n",
		rep.Spec.Name, rep.Spec.Config, time.Duration(rep.Spec.Horizon), rep.Spec.Seed)
	if rep.Spec.Description != "" {
		fmt.Fprintf(w, "  %s\n", rep.Spec.Description)
	}
	fmt.Fprintf(w, "%-6s %8s %9s %9s %6s %7s %9s %6s %8s %7s %8s\n",
		"bind", "arrived", "released", "completed", "lost", "ratio", "missrate", "epoch", "watch-ev", "ledger", "verdict")
	for _, r := range rep.Results {
		ledger := "clean"
		if !r.LedgerClean {
			ledger = "BAD"
		}
		verdict := "PASS"
		if !r.Passed {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%-6s %8d %9d %9d %6d %7.3f %9.4f %6d %8d %7s %8s\n",
			r.Binding, r.Arrived, r.Released, r.Completed, r.Lost, r.Ratio,
			r.MissRate, r.Epoch, r.WatchEvents, ledger, verdict)
		writeViolations(w, r.Violations)
	}
	if rep.RecordPath != "" {
		fmt.Fprintf(w, "journal recorded to %s\n", rep.RecordPath)
	}
	fmt.Fprintln(w)
}

// writeViolations lists a run's broken invariants under its table row.
func writeViolations(w io.Writer, violations []string) {
	for _, v := range violations {
		fmt.Fprintf(w, "       violation: %s\n", v)
	}
}

// runScenarioArgs is the registry entry: it parses the subcommand's own
// flags from p.Args, then runs the spec or replays the journal they name.
func runScenarioArgs(p Params) (Report, error) {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	specPath := fs.String("spec", "", "scenario spec file (JSON)")
	bindingF := fs.String("binding", "both", "binding(s) to run: sim | live | both")
	record := fs.String("record", "", "record the run to a journal file (single binding only)")
	replay := fs.String("replay", "", "replay a journal file in the sim instead of running a spec")
	timescale := fs.Float64("timescale", 0, "live wall-clock compression factor (0 = the spec's)")
	if err := fs.Parse(p.Args); err != nil {
		return nil, fmt.Errorf("%w: scenario: %v", ErrUsage, err)
	}
	if *replay != "" {
		data, err := os.ReadFile(*replay)
		if err != nil {
			return nil, err
		}
		j, err := scenario.DecodeJournal(data)
		if err != nil {
			return nil, err
		}
		rr, err := scenario.Replay(j)
		return replayReport{rr, j.Header.Binding}, err
	}
	if *specPath == "" {
		return nil, fmt.Errorf("%w: scenario: -spec or -replay is required", ErrUsage)
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return nil, err
	}
	s, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	var bindings []string
	switch *bindingF {
	case "sim":
		bindings = []string{scenario.BindingSim}
	case "live":
		bindings = []string{scenario.BindingLive}
	case "both":
		bindings = []string{scenario.BindingSim, scenario.BindingLive}
	default:
		return nil, fmt.Errorf("%w: scenario: -binding must be sim, live or both, got %q", ErrUsage, *bindingF)
	}
	return RunScenario(ScenarioOptions{Spec: s, Bindings: bindings, TimeScale: *timescale, RecordPath: *record})
}

// replayReport is a journal replay: its JSON document is the canonical
// metrics document itself, the byte-identity artifact replays are compared
// by, so it carries no "experiment" key.
type replayReport struct {
	*scenario.ReplayResult
	binding string
}

func (r replayReport) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Replayed %q (%s journal): arrived %d, released %d, completed %d, missed %d, lost %d, ratio %.3f\n",
		r.Scenario, r.binding, r.Arrived, r.Released, r.Completed, r.Missed, r.Lost, r.Ratio)
}

func (replayReport) Passed() bool { return true }

func (r replayReport) MarshalJSON() ([]byte, error) { return r.MetricsJSON, nil }
