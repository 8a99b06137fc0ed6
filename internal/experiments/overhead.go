package experiments

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/eventchan"
	"repro/internal/live"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/workload"
)

// OverheadOptions parameterizes the Section 7.3 overhead measurement.
type OverheadOptions struct {
	// Duration is how long the measured workload runs (the paper ran 5
	// minutes; the compressed default is 5 seconds).
	Duration time.Duration
	// PingCount is the number of event round trips used to estimate the
	// one-way communication delay, as in the paper (1000).
	PingCount int
}

// overheadTimeScale compresses the Section 7.3 workload's periods, deadlines
// and execution times uniformly (synthetic utilization is invariant).
const overheadTimeScale = 0.05

// withDefaults fills unset options.
func (o OverheadOptions) withDefaults() OverheadOptions {
	if o.Duration == 0 {
		o.Duration = 5 * time.Second
	}
	if o.PingCount == 0 {
		o.PingCount = 1000
	}
	return o
}

// OpResult is one measured operation (mean/max over its samples).
type OpResult struct {
	// Name describes the operation.
	Name string `json:"name"`
	// Mean and Max are the observed statistics.
	Mean time.Duration `json:"mean_ns"`
	Max  time.Duration `json:"max_ns"`
	// Count is the number of samples.
	Count int64 `json:"samples"`
}

// OverheadReport collects the Figure 7 primitive operations and the Figure 8
// composite delay rows.
type OverheadReport struct {
	Experiment string `json:"experiment"`
	// Ops are the primitive operations (numbered as in Figure 7):
	// 1 hold task + push event, 2 communication delay, 3 generate
	// deployment plan, 4 admission test, 5 release the task, 6 release the
	// duplicate task, 7 report completed subtask, 8 update synthetic
	// utilization. Operation 1 is TaskEffector.HoldPush and, since the ORB
	// writes on the sender's goroutine, contains the TaskArrive's socket
	// write (and 7 the IdleReset report's); the hop that write starts is
	// shorter by the writer hand-off it replaced, which shows in a job's
	// decision wait and in operation 2, half a ping round trip.
	Ops map[int]OpResult `json:"ops"`
	// Rows are the composite service delays in the paper's Figure 8 order.
	Rows []OverheadRow `json:"rows"`
}

// Passed is always true: the overhead table is a measurement.
func (*OverheadReport) Passed() bool { return true }

// OverheadRow is one Figure 8 line: a service delay composed from operation
// costs.
type OverheadRow struct {
	// Name matches the paper's row label.
	Name string `json:"name"`
	// Formula lists the composed operation numbers, e.g. "1+2+4+2+5".
	Formula string `json:"formula"`
	// Mean and Max are sums of the component means and maxes.
	Mean time.Duration `json:"mean_ns"`
	Max  time.Duration `json:"max_ns"`
}

// RunOverhead reproduces the Section 7.3 methodology: a random workload on 3
// application processors plus a central task manager over real TCP loopback.
// Two runs cover the configuration space the paper measures: one with load
// balancing enabled (J_J_J) for the plan-generation and re-allocation rows,
// and one without (J_J_N) for the AC-without-LB row. The one-way
// communication delay is measured by pushing an event back and forth
// PingCount times and halving the round-trip time.
func RunOverhead(opts OverheadOptions) (*OverheadReport, error) {
	opts = opts.withDefaults()

	tasks, err := workload.Generate(workload.OverheadParams(0))
	if err != nil {
		return nil, err
	}
	scaled := workload.Scale(tasks, overheadTimeScale)
	w := spec.FromTasks("overhead", workload.MaxProc(scaled)+1, scaled)

	withLB, err := measureRun(w, core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}, opts)
	if err != nil {
		return nil, err
	}
	noLB, err := measureRun(w, core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyNone}, opts)
	if err != nil {
		return nil, err
	}

	ops := map[int]OpResult{
		1: withLB.holdPush.named("hold the task, push event"),
		2: withLB.comm.named("communication delay"),
		3: withLB.location.named("generate acceptable deployment plan"),
		4: noLB.test.named("apply the admission test"),
		5: withLB.releaseHome.named("release the task"),
		6: withLB.releaseDup.named("release the duplicate task"),
		7: withLB.report.named("report completed subtask"),
		8: withLB.reset.named("update synthetic utilization"),
	}

	rep := &OverheadReport{Experiment: "overhead", Ops: ops}
	compose := func(name, formula string, nums ...int) {
		var mean, maxSum time.Duration
		for _, n := range nums {
			mean += ops[n].Mean
			maxSum += ops[n].Max
		}
		rep.Rows = append(rep.Rows, OverheadRow{Name: name, Formula: formula, Mean: mean, Max: maxSum})
	}
	// The paper folds the admission test into the plan-generation step when
	// LB is enabled ("returns an assignment plan that is acceptable"), so
	// rows quoting operation 3 implicitly include the test; we compose 3+4
	// explicitly under the paper's row labels.
	compose("AC without LB", "(1+2+4+2+5)", 1, 2, 4, 2, 5)
	compose("AC with LB (no re-allocation)", "(1+2+3+2+5)", 1, 2, 3, 4, 2, 5)
	compose("AC with LB (re-allocation)", "(1+2+3+2+6)", 1, 2, 3, 4, 2, 6)
	compose("LB (no re-allocation)", "(1+2+3+2+5)", 1, 2, 3, 4, 2, 5)
	compose("LB (re-allocation)", "(1+2+3+2+6)", 1, 2, 3, 4, 2, 6)
	compose("IR (on AC side)", "(8)", 8)
	compose("IR (other part)", "(7+2)", 7, 2)
	compose("Communication Delay", "(2)", 2)
	return rep, nil
}

// runStats are the primitive measurements of one cluster run.
type runStats struct {
	holdPush, comm, location, test, releaseHome, releaseDup, report, reset statSummary
}

// statSummary is a plain (mean, max, count) triple.
type statSummary struct {
	mean  time.Duration
	max   time.Duration
	count int64
}

// named converts to an exported OpResult.
func (s statSummary) named(name string) OpResult {
	return OpResult{Name: name, Mean: s.mean, Max: s.max, Count: s.count}
}

// fromOp snapshots a core.OpStats.
func fromOp(s *core.OpStats) statSummary {
	return statSummary{mean: s.Mean(), max: s.Max(), count: s.Count()}
}

// merge pools two summaries (approximate: weighted mean, max of maxes).
func merge(a, b statSummary) statSummary {
	total := a.count + b.count
	if total == 0 {
		return statSummary{}
	}
	mean := (time.Duration(a.count)*a.mean + time.Duration(b.count)*b.mean) / time.Duration(total)
	maxOf := a.max
	if b.max > maxOf {
		maxOf = b.max
	}
	return statSummary{mean: mean, max: maxOf, count: total}
}

// measureRun deploys one cluster, drives the workload, and harvests the
// primitive operation timings.
func measureRun(w *spec.Workload, cfg core.Config, opts OverheadOptions) (*runStats, error) {
	c, err := cluster.Start(cluster.Options{Workload: w, Config: cfg, Seed: 1})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	comm, err := measureCommDelay(c, opts.PingCount)
	if err != nil {
		return nil, err
	}

	if err := c.StartDrivers(1.0); err != nil {
		return nil, err
	}
	time.Sleep(opts.Duration)
	c.StopDrivers()
	c.Drain(5 * time.Second)

	ac, err := c.AC()
	if err != nil {
		return nil, err
	}
	ctrl := ac.Controller()

	rs := &runStats{comm: comm}
	rs.location = fromOp(&ctrl.Timing().Location)
	rs.test = fromOp(&ctrl.Timing().Test)
	rs.reset = fromOp(&ctrl.Timing().Reset)
	for i := range c.Apps {
		te, err := c.TE(i)
		if err != nil {
			return nil, err
		}
		rs.holdPush = merge(rs.holdPush, fromOp(&te.HoldPush))
		ir, err := c.IR(i)
		if err != nil {
			return nil, err
		}
		rs.report = merge(rs.report, fromOp(&ir.ReportPush))
	}
	// Stage-0 subtask instances measure release handling: home instances
	// are operation 5 (release the task), duplicates operation 6 (release
	// the duplicate task).
	home := releaseHomes(c.Plan, c.Tasks())
	for id, st := range c.Subtasks() {
		switch isHome, ok := home[id]; {
		case ok && isHome:
			rs.releaseHome = merge(rs.releaseHome, fromOp(&st.ReleaseHandle))
		case ok:
			rs.releaseDup = merge(rs.releaseDup, fromOp(&st.ReleaseHandle))
		}
	}
	return rs, nil
}

// releaseHomes maps the ID of every stage-0 subtask instance in the plan
// to whether it runs on its task's home processor in tasks, read from the
// instance's task, stage and processor attributes.
func releaseHomes(p *deploy.Plan, tasks []*sched.Task) map[string]bool {
	homes := make(map[string]string, len(tasks))
	for _, t := range tasks {
		homes[t.ID] = strconv.Itoa(t.Subtasks[0].Processor)
	}
	out := make(map[string]bool)
	for _, inst := range p.Instances {
		if a := inst.Attrs(); inst.Implementation == live.ImplSubtask && a[live.AttrStage] == "0" {
			out[inst.ID] = homes[a[live.AttrTask]] == a[live.AttrProcessor]
		}
	}
	return out
}

// measureCommDelay pushes an event back and forth between application node 0
// and the manager, as the paper does, and halves the mean/max round trip.
func measureCommDelay(c *cluster.Cluster, count int) (statSummary, error) {
	const pingType = "OverheadPing"
	const pongType = "OverheadPong"
	app := c.Apps[0]
	manager := c.Manager

	pong := make(chan struct{}, 1)
	manager.Channel.Subscribe(pingType, func(eventchan.Event) {
		// Reflect back to the app node.
		_ = manager.Channel.Push(eventchan.Event{Type: pongType})
	})
	app.Channel.Subscribe(pongType, func(eventchan.Event) {
		select {
		case pong <- struct{}{}:
		default:
		}
	})
	manager.Channel.AddRemoteSink(pongType, app.Addr)
	app.Channel.AddRemoteSink(pingType, manager.Addr)

	var total, maxRTT time.Duration
	for i := 0; i < count; i++ {
		start := time.Now()
		if err := app.Channel.Push(eventchan.Event{Type: pingType}); err != nil {
			return statSummary{}, err
		}
		select {
		case <-pong:
		case <-time.After(5 * time.Second):
			return statSummary{}, fmt.Errorf("experiments: ping %d timed out", i)
		}
		rtt := time.Since(start)
		total += rtt
		if rtt > maxRTT {
			maxRTT = rtt
		}
	}
	return statSummary{
		mean:  total / time.Duration(count) / 2,
		max:   maxRTT / 2,
		count: int64(count),
	}, nil
}

// WriteTable formats the report like the paper's Figures 7 and 8.
func (rep *OverheadReport) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: measured operation costs")
	fmt.Fprintf(w, "%-4s %-38s %10s %10s %8s\n", "op", "operation", "mean", "max", "samples")
	for i := 1; i <= 8; i++ {
		op := rep.Ops[i]
		fmt.Fprintf(w, "%-4d %-38s %10s %10s %8d\n", i, op.Name, us(op.Mean), us(op.Max), op.Count)
	}
	fmt.Fprintln(w, "\nFigure 8: service overheads (µs)")
	fmt.Fprintf(w, "%-34s %-14s %10s %10s\n", "service", "composition", "mean", "max")
	for _, row := range rep.Rows {
		fmt.Fprintf(w, "%-34s %-14s %10s %10s\n", row.Name, row.Formula, us(row.Mean), us(row.Max))
	}
	fmt.Fprintln(w)
}

// us renders a duration in whole microseconds, the paper's unit.
func us(d time.Duration) string {
	return fmt.Sprintf("%d", d.Microseconds())
}
