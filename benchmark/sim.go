package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// simSpec sizes one simulation sweep: the platform, the task count, the
// combinations swept, the virtual horizon each is run to, and how long the
// sweep goes on making passes over all the combinations.
type simSpec struct {
	procs, tasks int
	combos       []core.Config
	horizon      time.Duration
	// budget is the wall time the passes may fill: another pass starts only
	// if one as long as the longest so far would still end inside it. The
	// sweep makes minPasses whatever the budget.
	budget    time.Duration
	minPasses int
}

// sweepSpec is the sim-sweep workload: the paper's Figure 5 sweep at ten
// times the platform size. One pass runs all the combinations to the same
// virtual horizon, about 2 s of wall time on the reference 2-vCPU box; the
// run length asked for sets how many passes there are, not how much work a
// pass is, so a slow hour makes fewer passes and not a longer run. Each
// combination is charged its quietest passes (see quietMean): a neighbour on
// the host slows the box for seconds at a time, and passes a few seconds apart
// do not all meet the same episode.
func (sz sizing) sweepSpec(seconds float64) simSpec {
	return simSpec{
		procs: sz.sweepProcs, tasks: sz.sweepTasks,
		combos:  core.AllCombinations(),
		horizon: sz.sweepHorizon,
		budget:  time.Duration(seconds * float64(time.Second)), minPasses: 2,
	}
}

// maxPasses caps a sweep whose passes are much shorter than its budget.
const maxPasses = 64

// comboResult is one combination's deterministic outputs and its cost.
type comboResult struct {
	Combo     string
	Arrived   int64
	Released  int64
	Skipped   int64
	Completed int64
	Events    int64
	Ratio     float64
	Build     time.Duration // NewSimSystem, over the quietest passes
	Run       time.Duration // Run, over the quietest passes
}

// sameOutputs reports whether two runs of one combination computed the same
// thing.
func (r comboResult) sameOutputs(o comboResult) bool {
	return r.Combo == o.Combo && r.Arrived == o.Arrived && r.Released == o.Released && r.Skipped == o.Skipped &&
		r.Completed == o.Completed && r.Events == o.Events && r.Ratio == o.Ratio
}

// simOutcome is what one sweep measured.
type simOutcome struct {
	combos   []comboResult
	passes   int
	jobs     int64 // simulated arrivals over all passes
	cost     procCost
	setupDur time.Duration // task-set generation + one NewSimSystem
	// traceOverhead is the share by which the traced passes took longer
	// than the untraced ones.
	traceOverhead float64
	violations    []string
}

// simTasks generates the sweep's task set from the seed.
func (s simSpec) simTasks(seed int64) ([]*sched.Task, error) {
	p := workload.ScaleParams(s.procs, s.tasks, int(seed))
	p.TargetUtil = 0.9
	return workload.Generate(p)
}

// setupSim is the part of a sweep a user pays before the first combination
// runs: generating the task set and building one simulation over it.
func setupSim(s simSpec, seed int64) ([]*sched.Task, time.Duration, error) {
	t0 := time.Now()
	tasks, err := s.simTasks(seed)
	if err != nil {
		return nil, 0, err
	}
	if _, err := core.NewSimSystem(s.simConfig(s.combos[0], seed), tasks); err != nil {
		return nil, 0, err
	}
	return tasks, time.Since(t0), nil
}

func (s simSpec) simConfig(combo core.Config, seed int64) core.SimConfig {
	return core.SimConfig{Strategies: combo, NumProcs: s.procs, Horizon: s.horizon, Seed: seed}
}

// runSim runs every combination serially on one goroutine, pass after pass
// until the budget is used: one request per combination, built (and thereby validated and
// accepted) by NewSimSystem and completed when Run returns. The same seed
// must give every pass the same outputs. With a tracer, every other pass is
// traced, so traced and untraced passes interleave.
func runSim(s simSpec, seed int64, tr *tracer) (*simOutcome, error) {
	tasks, setup, err := setupSim(s, seed)
	if err != nil {
		return nil, err
	}
	out := &simOutcome{setupDur: setup, combos: make([]comboResult, len(s.combos))}
	builds := make([][]float64, len(s.combos))
	runs := make([][]float64, len(s.combos))
	base := time.Now()
	before := sampleProc()
	var longest time.Duration
	for pass := 0; pass < maxPasses; pass++ {
		if elapsed := time.Since(base); pass >= s.minPasses && elapsed+longest > s.budget {
			break
		}
		passStart := time.Now()
		for ci, combo := range s.combos {
			r := comboResult{Combo: combo.String()}
			// Each request starts from a collected heap, so that it pays for
			// its own garbage and not for its predecessor's.
			runtime.GC()
			t0 := time.Now()
			sim, err := core.NewSimSystem(s.simConfig(combo, seed), tasks)
			if err != nil {
				return nil, fmt.Errorf("sim %s: %w", combo, err)
			}
			build := time.Since(t0)
			m := sim.Run()
			run := time.Since(t0) - build
			r.Arrived, r.Released = m.Total.Arrived, m.Total.Released
			r.Skipped, r.Completed = m.Total.Skipped, m.Total.Completed
			r.Ratio = m.AcceptedUtilizationRatio()
			r.Events = sim.Engine().Fired()
			if tr != nil && pass%2 == 1 {
				id, start := fmt.Sprintf("combo/%s/%d", r.Combo, pass), int64(t0.Sub(base))
				root := tr.add(id, 0, "combination", start, start+int64(build+run))
				tr.add(id, root, "core.sim_build", start, start+int64(build))
				tr.add(id, root, "core.sim_run", start+int64(build), start+int64(build+run))
			}
			if pass == 0 {
				out.combos[ci] = r
				if r.Released != r.Completed {
					out.violations = append(out.violations, fmt.Sprintf("%s: released %d != completed %d", r.Combo, r.Released, r.Completed))
				}
				if r.Arrived != r.Released+r.Skipped {
					out.violations = append(out.violations, fmt.Sprintf("%s: arrived %d != released %d + skipped %d", r.Combo, r.Arrived, r.Released, r.Skipped))
				}
			} else if !r.sameOutputs(out.combos[ci]) {
				out.violations = append(out.violations, fmt.Sprintf("%s: pass %d computed different outputs from pass 0", r.Combo, pass))
			}
			out.jobs += r.Arrived
			builds[ci] = append(builds[ci], float64(build))
			runs[ci] = append(runs[ci], float64(run))
		}
		longest = max(longest, time.Since(passStart))
		out.passes++
	}
	out.cost = costBetween(before, sampleProc(), int(out.jobs))
	lo, hi := 1.0, 0.0
	var plain, traced float64
	for ci := range out.combos {
		r := &out.combos[ci]
		r.Build, r.Run = time.Duration(quietMean(builds[ci])), time.Duration(quietMean(runs[ci]))
		lo, hi = min(lo, r.Ratio), max(hi, r.Ratio)
		var even, odd []float64
		for pass, d := range runs[ci] {
			if pass%2 == 1 {
				odd = append(odd, d)
			} else {
				even = append(even, d)
			}
		}
		plain, traced = plain+median(even), traced+median(odd)
	}
	if tr != nil && traced > 0 {
		out.traceOverhead = (traced - plain) / plain
	}
	if len(out.combos) > 1 && !(lo < 1 && hi > lo) {
		out.violations = append(out.violations, fmt.Sprintf("accepted-utilization ratios span %.3f..%.3f: the strategies must differ", lo, hi))
	}
	return out, nil
}
