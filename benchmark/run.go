package main

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// sizing holds the benchmark's size constants. Every measurement uses
// fullSize; the smoke test shrinks them so that every code path still runs
// under plain go test.
type sizing struct {
	// extraSetups is how many times a run sets up and tears down before the
	// set-up it measures on; setup_s is the median over all of them, so one
	// slow start does not decide it.
	extraSetups int
	// warmup is how many jobs are submitted and settled before timing.
	warmup int
	// sweepProcs and sweepTasks size sim-sweep's platform and task set, and
	// sweepHorizon is the virtual time each combination is run to.
	sweepProcs, sweepTasks int
	sweepHorizon           time.Duration
	// probeDiv divides every probe's iteration count.
	probeDiv int
	// standInChurn and standInSim size the stand-in runs: a traced run also
	// reports the layers its own workload does not touch, from a short run
	// of the workload that does (see layerTour).
	standInChurn time.Duration
	standInSim   simSpec
}

var fullSize = sizing{
	extraSetups: 4,
	warmup:      200,
	sweepProcs:  50, sweepTasks: 10000, sweepHorizon: 500 * time.Millisecond,
	probeDiv:     1,
	standInChurn: 1500 * time.Millisecond,
	standInSim:   simSpec{procs: 20, tasks: 2000, horizon: 2 * time.Second, combos: standInCombos(), minPasses: 1},
}

// report is one run's outcome: what the last line of output carries, and
// what the lines before it say.
type report struct {
	workload   string
	traced     bool
	attempted  int
	failed     int
	values     metrics
	violations []string
	notes      []string
}

func (r *report) correct() bool { return len(r.violations) == 0 && r.failed == 0 }

// runOne runs one workload once. Untraced, it reports the end-to-end
// metrics; traced, the per-layer ones.
func runOne(sz sizing, name string, seed int64, seconds float64, traced bool, outDir string) (*report, error) {
	window := time.Duration(seconds * float64(time.Second))
	spec, live := liveSpecs[name]
	switch {
	case live && !traced:
		return liveUntraced(sz, spec, seed, window)
	case live:
		return liveTraced(sz, spec, seed, window, outDir)
	case name == "sim-sweep" && !traced:
		return simUntraced(sz, seed, seconds)
	case name == "sim-sweep":
		return simTraced(sz, seed, seconds, outDir)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func liveUntraced(sz sizing, spec liveSpec, seed int64, window time.Duration) (*report, error) {
	var setups []float64
	for i := 0; i < sz.extraSetups; i++ {
		rig, err := setupLive(spec, seed, sz.warmup, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, rig.setupDur.Seconds())
		rig.close()
	}
	out, err := runLive(spec, seed, sz.warmup, window, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, out.setupDur.Seconds())
	rep := out.report(spec.name, false)
	rep.values = out.endToEnd(setups)
	// Beside the per-slice medians, the whole window's median and the highest
	// percentile its sample supports, with the sample count.
	for _, l := range []struct {
		name    string
		samples []float64
	}{{"decision", out.stats.Decision}, {"completion", out.stats.Completion}} {
		s := summarize(l.samples)
		rep.notes = append(rep.notes, fmt.Sprintf("%s latency over the window: n=%d, p50 %.1f us, p%g %.1f us", l.name, s.N, s.P50, s.TailPct, s.Tail))
	}
	rep.notes = append(rep.notes, "every event crossed TCP loopback sockets; wire latency is not measured")
	return rep, nil
}

// report starts a run's report from its counts and correctness findings.
func (o *liveOutcome) report(name string, traced bool) *report {
	return &report{
		workload: name, traced: traced,
		attempted: o.stats.Attempted, failed: o.stats.Failed,
		violations: append(append([]string(nil), o.violations...), o.stats.Violations...),
	}
}

// liveTraced runs the window once with every other slice traced:
// the traced slices give the in-situ metrics, and their readings against the
// untraced slices' are the tracing overhead.
func liveTraced(sz sizing, spec liveSpec, seed int64, window time.Duration, outDir string) (*report, error) {
	// Room for 5000 jobs/s at three spans each; append grows it if a faster
	// system needs more.
	tr := newTracer(int(window.Seconds()*5000*3) + 1024)
	out, err := runLive(spec, seed, sz.warmup, window, tr)
	if err != nil {
		return nil, err
	}
	rep := out.report(spec.name, true)
	rep.values = metrics{}
	if err := layerTour(sz, rep, seed, spec.name); err != nil {
		return nil, err
	}
	rep.values.merge(out.perLayer())
	rep.values["trace.spans"] = float64(len(tr.spans))

	v := rep.values
	rep.notes = append(rep.notes, fmt.Sprintf(
		"budget: a %s decision on %s: %.0f us in submit, %.0f us waiting for the decision, of which ~2 x hop = %.0f us is transport; then %.0f us to completion",
		spec.config, spec.name, v["cluster.submit_p50_us"], v["cluster.decision_wait_p50_us"], 2*v["eventchan.hop_p50_us"], v["cluster.execute_p50_us"]))
	rep.notes = append(rep.notes, selfTimeNotes(tr)...)
	if err := tr.write(outDir, spec.name, rep.values); err != nil {
		return nil, err
	}
	return rep, nil
}

func simUntraced(sz sizing, seed int64, seconds float64) (*report, error) {
	spec := sz.sweepSpec(seconds)
	var setups []float64
	for i := 0; i < sz.extraSetups; i++ {
		_, d, err := setupSim(spec, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	out, err := runSim(spec, seed, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, out.setupDur.Seconds())
	rep := out.report(false)
	rep.values = out.endToEnd(setups)
	rep.notes = append(rep.notes, fmt.Sprintf("latency samples: %d combinations over %d passes (one request each: decided when NewSimSystem accepts it, completed when Run returns)", len(out.combos), out.passes))
	return rep, nil
}

func (o *simOutcome) report(traced bool) *report {
	return &report{workload: "sim-sweep", traced: traced, attempted: int(o.jobs), violations: append([]string(nil), o.violations...)}
}

// simTraced runs the sweep with every other pass traced. Every pass must
// reproduce the first pass's outputs, so the simulation computes the same
// thing whether or not it is being traced.
func simTraced(sz sizing, seed int64, seconds float64, outDir string) (*report, error) {
	spec := sz.sweepSpec(seconds)
	tr := newTracer(3*len(spec.combos)*maxPasses/2 + 16)
	out, err := runSim(spec, seed, tr)
	if err != nil {
		return nil, err
	}
	rep := out.report(true)
	rep.values = metrics{}
	if err := layerTour(sz, rep, seed, "sim-sweep"); err != nil {
		return nil, err
	}
	rep.values.merge(out.perLayer())
	rep.values["trace.spans"] = float64(len(tr.spans))
	for _, r := range out.combos {
		rep.notes = append(rep.notes, fmt.Sprintf("combination %s: arrived %d released %d completed %d events %d ratio %.4f, build %.1f ms, run %.1f ms, %.0f jobs/s",
			r.Combo, r.Arrived, r.Released, r.Completed, r.Events, r.Ratio, ms(r.Build), ms(r.Run), float64(r.Arrived)/r.Run.Seconds()))
	}
	rep.notes = append(rep.notes, selfTimeNotes(tr)...)
	if err := tr.write(outDir, "sim-sweep", rep.values); err != nil {
		return nil, err
	}
	return rep, nil
}

// layerTour fills a traced run's report with every layer metric its own
// workload does not produce: the isolated probes, which are the same fixed
// work on every workload, and short stand-in runs of the workloads that
// exercise the remaining layers. The run's own in-situ readings are merged
// over these afterwards, so a stand-in only ever speaks for a layer the
// workload left idle.
func layerTour(sz sizing, rep *report, seed int64, name string) error {
	probes := []func(div int) (metrics, error){
		probeORB, probeEventChan, probeController, probeLedger, probeDES, probeConfigEngine,
		func(div int) (metrics, error) { return probeWorkload(sz.sweepSpec(1), seed, div) },
	}
	for _, probe := range probes {
		m, err := probe(sz.probeDiv)
		if err != nil {
			return err
		}
		rep.values.merge(m)
	}
	if name != "sim-sweep" {
		out, err := runSim(sz.standInSim, seed, nil)
		if err != nil {
			return err
		}
		rep.violations = append(rep.violations, out.violations...)
		rep.values.merge(out.perLayer())
	}
	if name != "live-churn" {
		out, err := runLive(liveSpecs["live-churn"], seed, sz.warmup, sz.standInChurn, newTracer(0))
		if err != nil {
			return err
		}
		rep.violations = append(rep.violations, out.violations...)
		rep.violations = append(rep.violations, out.stats.Violations...)
		rep.values.merge(out.perLayer())
	}
	return nil
}

// standInCombos are what the reduced sweep runs when it speaks for the
// simulation layers on the live workloads: the fastest, the fully dynamic and
// the slowest combination.
func standInCombos() []core.Config {
	perTask, perJob := core.StrategyPerTask, core.StrategyPerJob
	return []core.Config{
		{AC: perTask, IR: perTask, LB: perTask},
		{AC: perJob, IR: perJob, LB: perJob},
		{AC: perJob, IR: perTask, LB: perTask},
	}
}

// selfTimeNotes renders each span name's total and self time.
func selfTimeNotes(tr *tracer) []string {
	total, self := tr.selfTimes()
	var notes []string
	for _, name := range sortedKeys(total) {
		notes = append(notes, fmt.Sprintf("span %-20s total %10.1f ms  self %10.1f ms", name, float64(total[name])/1e6, float64(self[name])/1e6))
	}
	return notes
}
