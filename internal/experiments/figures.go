// Package experiments regenerates the paper's evaluation artifacts — the
// accepted-utilization-ratio comparisons of Figures 5 and 6 over all 15
// valid strategy combinations, and the service overhead accounting of
// Figures 7 and 8 — plus this repo's own sweeps. Every experiment is one
// Registry entry whose Report renders the rows the paper reports as a table
// and, marshaled, as a JSON document (the result structs carry the tags).
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// FigureOptions parameterizes a Figure 5/6 style experiment.
type FigureOptions struct {
	// Sets is the number of random task sets to average over (the paper
	// uses 10).
	Sets int
	// Horizon is the per-run workload duration (the paper runs 5 minutes).
	Horizon time.Duration
	// Combos restricts the strategy combinations; nil runs all 15.
	Combos []core.Config
	// Workers bounds how many (combo, set) trials run concurrently. Zero or
	// one runs serially on the calling goroutine; negative values use one
	// worker per CPU. Every trial owns an independent SimSystem seeded from
	// its set number and results are assembled in (combo, set) order, so
	// the output is bit-identical for any worker count.
	Workers int
}

// withDefaults fills unset options.
func (o FigureOptions) withDefaults() FigureOptions {
	if o.Sets == 0 {
		o.Sets = paperSets
	}
	if o.Horizon == 0 {
		o.Horizon = paperHorizon
	}
	if len(o.Combos) == 0 {
		o.Combos = core.AllCombinations()
	}
	return o
}

// ComboResult is the accepted utilization ratio of one strategy combination
// averaged over the task sets.
type ComboResult struct {
	// Combo is the AC_IR_LB tuple.
	Combo core.Config `json:"combo"`
	// Mean is the average accepted utilization ratio over all sets.
	Mean float64 `json:"mean"`
	// PerSet holds the per-task-set ratios.
	PerSet []float64 `json:"per_set"`
	// Jobs is the total number of job arrivals simulated across the sets —
	// the denominator for jobs/sec perf-trajectory metrics.
	Jobs int64 `json:"jobs"`
}

// RunFigure5 reproduces Section 7.1: random balanced workloads over 5
// application processors, all 15 combinations, accepted utilization ratio
// averaged over the task sets.
func RunFigure5(opts FigureOptions) ([]ComboResult, error) {
	return runFigure(workload.Figure5Params, opts)
}

// RunFigure6 reproduces Section 7.2: imbalanced workloads with all home
// subtasks on three processors at synthetic utilization 0.7 and duplicates
// on the two spare processors.
func RunFigure6(opts FigureOptions) ([]ComboResult, error) {
	return runFigure(workload.Figure6Params, opts)
}

// runFigure fans every (combo, set) trial across the bounded worker pool
// and aggregates the ratios in deterministic (combo, set) order.
func runFigure(params func(set int) workload.Params, opts FigureOptions) ([]ComboResult, error) {
	opts = opts.withDefaults()

	// One slot per trial, indexed combo-major so assembly is a simple walk.
	ratios := make([]float64, len(opts.Combos)*opts.Sets)
	jobs := make([]int64, len(ratios))
	err := runTrials(len(ratios), opts.Workers, func(i int) error {
		combo := opts.Combos[i/opts.Sets]
		set := i % opts.Sets
		p := params(set)
		tasks, err := workload.Generate(p)
		if err != nil {
			return fmt.Errorf("experiments: set %d: %w", set, err)
		}
		sim, err := core.NewSimSystem(core.SimConfig{
			Strategies: combo,
			NumProcs:   workload.MaxProc(tasks) + 1,
			Horizon:    opts.Horizon,
			Seed:       p.Seed ^ 0x5DEECE66D,
		}, tasks)
		if err != nil {
			return fmt.Errorf("experiments: combo %s set %d: %w", combo, set, err)
		}
		m := sim.Run()
		ratios[i] = m.AcceptedUtilizationRatio()
		jobs[i] = m.Total.Arrived
		return nil
	})
	if err != nil {
		return nil, err
	}

	results := make([]ComboResult, 0, len(opts.Combos))
	for c, combo := range opts.Combos {
		perSet := append([]float64(nil), ratios[c*opts.Sets:(c+1)*opts.Sets]...)
		var sum float64
		for _, r := range perSet {
			sum += r
		}
		var total int64
		for _, j := range jobs[c*opts.Sets : (c+1)*opts.Sets] {
			total += j
		}
		results = append(results, ComboResult{
			Combo:  combo,
			Mean:   sum / float64(len(perSet)),
			PerSet: perSet,
			Jobs:   total,
		})
	}
	return results, nil
}

// paperSets and paperHorizon are the paper's parameters for Figures 5 and 6:
// ten random task sets, five minutes each.
const (
	paperSets    = 10
	paperHorizon = 5 * time.Minute
)

// figure5Findings checks Section 7.1's findings against a run over all 15
// combinations and returns the ones the results contradict.
func figure5Findings(results []ComboResult) []string {
	var failed []string
	// Finding 1: IR per job significantly outperforms IR per task or no IR.
	irJ, irT, irN := MeanOf(results, "*_J_*"), MeanOf(results, "*_T_*"), MeanOf(results, "*_N_*")
	if irJ <= irT || irJ <= irN {
		failed = append(failed, fmt.Sprintf("IR per job mean %.3f not above per-task %.3f / none %.3f", irJ, irT, irN))
	}
	// Finding 2: idle resetting or load balancing increases admitted utilization.
	if lbT, lbN := MeanOf(results, "*_*_T"), MeanOf(results, "*_*_N"); lbT <= lbN {
		failed = append(failed, fmt.Sprintf("LB per task mean %.3f not above no-LB %.3f", lbT, lbN))
	}
	if irT <= irN {
		failed = append(failed, fmt.Sprintf("IR per task mean %.3f not above no-IR %.3f", irT, irN))
	}
	// Finding 3: J_J_* configurations outperform all others.
	if best := Best(results).Combo.String(); !strings.HasPrefix(best, "J_J_") {
		failed = append(failed, fmt.Sprintf("best combo %s, want a J_J_* configuration", best))
	}
	return failed
}

// figure6Findings checks Section 7.2's finding the same way: on an imbalanced
// workload LB per task improves significantly on no LB while LB per task and
// per job are comparable — within every AC/IR group, as Figure 6's bar triples.
func figure6Findings(results []ComboResult) []string {
	var failed []string
	mean := make(map[string]float64, len(results))
	for _, r := range results {
		mean[r.Combo.String()] = r.Mean
	}
	for _, group := range []string{"T_N", "T_T", "J_N", "J_T", "J_J"} {
		none, perTask, perJob := mean[group+"_N"], mean[group+"_T"], mean[group+"_J"]
		if perTask <= none {
			failed = append(failed, fmt.Sprintf("group %s: LB per task %.3f not above no-LB %.3f", group, perTask, none))
		}
		// "Not much difference between load balancing per task vs per job":
		// a generous band rather than a strict ordering.
		if diff := perTask - perJob; diff > 0.15 || diff < -0.15 {
			failed = append(failed, fmt.Sprintf("group %s: per-task %.3f vs per-job %.3f differ by more than 0.15", group, perTask, perJob))
		}
	}
	return failed
}

// MeanOf returns the mean ratio of the combos whose tuple matches the
// pattern, where '*' in a position matches any strategy (e.g. "*_J_*").
func MeanOf(results []ComboResult, pattern string) float64 {
	parts := strings.Split(pattern, "_")
	var sum float64
	var n int
	for _, r := range results {
		have := strings.Split(r.Combo.String(), "_")
		match := len(parts) == len(have)
		for i := 0; match && i < len(parts); i++ {
			if parts[i] != "*" && parts[i] != have[i] {
				match = false
			}
		}
		if match {
			sum += r.Mean
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Best returns the combination with the highest mean ratio.
func Best(results []ComboResult) ComboResult {
	best := results[0]
	for _, r := range results[1:] {
		if r.Mean > best.Mean {
			best = r
		}
	}
	return best
}

// RenderFigure formats the results as the paper's bar figure: one row per
// combination with an ASCII bar scaled to [0, 1].
func RenderFigure(title string, results []ComboResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s %-7s %s\n", "combo", "ratio", "accepted utilization ratio")
	const width = 50
	for _, r := range results {
		n := int(r.Mean*width + 0.5)
		if n < 0 {
			n = 0
		}
		if n > width {
			n = width
		}
		fmt.Fprintf(&b, "%-8s %6.3f  |%s%s|\n",
			r.Combo, r.Mean, strings.Repeat("#", n), strings.Repeat(" ", width-n))
	}
	return b.String()
}

// RenderCSV emits the series as CSV (combo, mean, per-set columns) for
// external plotting.
func RenderCSV(results []ComboResult) string {
	var b strings.Builder
	sets := 0
	for _, r := range results {
		if len(r.PerSet) > sets {
			sets = len(r.PerSet)
		}
	}
	b.WriteString("combo,mean")
	for i := 0; i < sets; i++ {
		fmt.Fprintf(&b, ",set%d", i)
	}
	b.WriteByte('\n')
	for _, r := range results {
		fmt.Fprintf(&b, "%s,%.6f", r.Combo, r.Mean)
		for _, v := range r.PerSet {
			fmt.Fprintf(&b, ",%.6f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Ranked returns the results sorted by descending mean ratio (stable on
// combo name for ties).
func Ranked(results []ComboResult) []ComboResult {
	out := append([]ComboResult(nil), results...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Mean != out[j].Mean {
			return out[i].Mean > out[j].Mean
		}
		return out[i].Combo.String() < out[j].Combo.String()
	})
	return out
}
