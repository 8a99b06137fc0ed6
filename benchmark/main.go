// Command benchmark is the repository's benchmark: four named workloads over
// the live and the simulation binding, end-to-end metrics from an untraced
// run, per-layer metrics from a traced run, and correctness checks on both.
//
//	go run ./benchmark                                  # every workload, untraced then traced
//	go run ./benchmark -repeat 5 -out a.json            # five sets, medians and quartiles
//	go run ./benchmark -compare a.json b.json           # no-regression table between two files
//	go run ./benchmark --workload live-steady --seed 3 --seconds 15 --trace 0
//
// The last form is what the driver runs: one workload, one run, in this
// process, with one JSON object as the last line of standard output.
// README.md defines every metric and says why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// metricValue is one metric in a run's JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) line() resultLine {
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for name, v := range r.values {
		out.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	return out
}

// print writes the run's metrics by name with their units, its notes and
// findings, and the JSON line last.
func (r *report) print() error {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Printf("workload %s (%s): attempted %d, failed %d\n", r.workload, mode, r.attempted, r.failed)
	for _, name := range sortedKeys(r.values) {
		fmt.Printf("  %-36s %16.4f %s\n", name, r.values[name], unitOf(name))
	}
	for _, n := range r.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, v := range r.violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
	line, err := json.Marshal(r.line())
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload, once, in this process (the driver's form)")
		seed     = flag.Int64("seed", 1, "seeds the arrival schedule, the task picks and the simulated task set")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default 30 untraced, 10 traced)")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "without -workload: how many sets of runs to make")
		out      = flag.String("out", "benchmark/out/results.json", "without -workload: where the runs are recorded")
		compare  = flag.Bool("compare", false, "compare two recorded files: -compare a.json b.json")
	)
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace, *repeat, *out, *compare, flag.Args()))
}

func run(workload string, seed int64, seconds float64, trace, repeat int, out string, compare bool, args []string) int {
	switch {
	case compare:
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		if err := compareFiles(args[0], args[1]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	case workload == "":
		return runAll(seed, seconds, repeat, out)
	}
	if seconds <= 0 {
		seconds = defaultSeconds(trace == 1)
	}
	rep, err := runOne(fullSize, workload, seed, seconds, trace == 1, "benchmark/out")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := rep.print(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func defaultSeconds(traced bool) float64 {
	if traced {
		return 10
	}
	return 30
}
