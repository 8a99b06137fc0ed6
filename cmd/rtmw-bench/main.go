// Command rtmw-bench regenerates the paper's evaluation artifacts and this
// repo's own sweeps: one subcommand per entry of the experiment registry
// (internal/experiments), plus "all". Run it without arguments for the list.
//
//	rtmw-bench [flags] <subcommand> [subcommand flags]
//
// Each subcommand's summary names the flags it reads. A zero -horizon means
// the experiment's own default. Sweeps fan their independent trials over
// -parallel workers; results are bit-identical to a serial run. A subcommand
// with flags of its own takes them after its name and stays out of "all".
//
// Tables go to stdout. With -json, every subcommand's JSON document goes to
// stdout instead — each carrying its name under "experiment" — and the tables
// move to stderr, so stdout redirects to a valid stream of JSON documents.
//
// The exit status is 1 when a run fails or an experiment with an acceptance
// verdict does not pass, and 2 — after a usage line — for a missing or
// unknown subcommand or bad flags, so a misspelled CI invocation fails
// instead of silently no-opping.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and writers passed in; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	registry := experiments.Registry()
	names := make([]string, 0, len(registry)+1)
	for _, e := range registry {
		names = append(names, e.Name)
	}
	names = append(names, "all")

	var p experiments.Params
	fs := flag.NewFlagSet("rtmw-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&p.Sets, "sets", 10, "random task sets per sweep point")
	fs.DurationVar(&p.Horizon, "horizon", 0, "virtual workload duration per run (0 = the experiment's default)")
	fs.DurationVar(&p.Duration, "duration", 5*time.Second, "live overhead run duration")
	fs.IntVar(&p.Pings, "pings", 1000, "event round trips for the communication-delay estimate")
	fs.IntVar(&p.Parallel, "parallel", 1, "concurrent trial workers for the sweeps (0 = one per CPU)")
	fs.StringVar(&p.Points, "points", "5x100,50x10000,200x50000", "scale sweep points as PROCSxTASKS pairs")
	fs.StringVar(&p.From, "from", "T_N_N", "reconfig experiment: starting AC_IR_LB combination")
	fs.StringVar(&p.To, "to", "J_J_J", "reconfig experiment: target AC_IR_LB combination")
	fs.BoolVar(&p.NoLive, "nolive", false, "skip the live-cluster legs of churn and autopilot")
	fs.BoolVar(&p.CSV, "csv", false, "also print CSV series for figures")
	jsonOut := fs.Bool("json", false, "print JSON documents to stdout and move the tables to stderr")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: rtmw-bench [flags] <subcommand> [subcommand flags]")
		for _, e := range registry {
			fmt.Fprintf(stderr, "  %-10s %s\n", e.Name, e.Summary)
		}
		fmt.Fprintln(stderr, "  all        every subcommand above that takes no flags of its own")
		fs.PrintDefaults()
	}
	usage := func(msg string) int {
		fmt.Fprintf(stderr, "rtmw-bench: %s: want one of %s\n", msg, strings.Join(names, " | "))
		fs.Usage()
		return 2
	}
	if err := fs.Parse(args); err != nil {
		return 2 // the flag set has printed the error and the usage
	}
	if fs.NArg() == 0 {
		return usage("missing subcommand")
	}
	name := fs.Arg(0)
	p.Args = fs.Args()[1:]

	var selected []experiments.Entry
	for _, e := range registry {
		if e.Name == name || name == "all" && !e.OwnArgs {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return usage(fmt.Sprintf("unknown subcommand %q", name))
	}

	tables := stdout
	if *jsonOut {
		tables = stderr
	}
	for _, e := range selected {
		fmt.Fprintf(stderr, "running %s...\n", e.Name)
		rep, err := e.Run(p)
		if err != nil {
			fmt.Fprintln(stderr, "rtmw-bench:", err)
			if errors.Is(err, experiments.ErrUsage) {
				fs.Usage()
				return 2
			}
			return 1
		}
		rep.WriteTable(tables)
		if *jsonOut {
			doc, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fmt.Fprintf(stderr, "rtmw-bench: encode %s: %v\n", e.Name, err)
				return 1
			}
			fmt.Fprintln(stdout, string(doc))
		}
		if !rep.Passed() {
			fmt.Fprintf(stderr, "rtmw-bench: %s did not pass its acceptance verdict (see its table)\n", e.Name)
			return 1
		}
	}
	return 0
}
