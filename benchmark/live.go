package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/spec"
)

// The common live deployment: 3 application processors and 12 two-stage
// tasks, stage s of task i homed on processor (i+s) mod 3 with one replica on
// the next processor.
const (
	liveProcs  = 3
	liveTasks  = 12
	liveStages = 2
	liveWindow = 8 // outstanding jobs of the closed loop that warms a cluster up
	// openLoopRate is the arrival rate of every live workload, in jobs/s:
	// about a quarter of what the full J_J_J path saturates at on 2 vCPUs. A
	// closed loop that keeps the cluster saturated measures how much of the
	// shared host the box was given (its throughput halved and doubled between
	// runs of one commit); at this rate the box is idle most of the time, a
	// neighbour takes little from it, and the load is the same on every run.
	openLoopRate = 300
	// controlEvery paces live-churn's control goroutine: four calls, one
	// whole cycle, per second. RemoveTasks leaves the departed
	// task's components installed and its ID unusable, so every cycle makes
	// each later event dearer (CPU per job grows by about 60 us per cycle);
	// at the 100 ms first tried, a 20 s run ended saturated and its latencies
	// said more about how far into saturation it got than about the system.
	controlEvery = 250 * time.Millisecond
)

// liveSpec is one live workload: the task set's shape and the starting
// strategy combination. Load is offered the same way on all of them (see
// openLoopRate).
type liveSpec struct {
	name   string
	config string
	// periodic says which tasks are periodic (period = deadline).
	periodic func(i int) bool
	// exec is the declared per-stage execution time and execScale the share
	// of it a subjob really spins for.
	exec      time.Duration
	deadline  time.Duration
	execScale float64
	// churn adds the control goroutine cycling reconfigurations and task-set
	// changes while jobs keep arriving.
	churn bool
}

func never(int) bool  { return false }
func always(int) bool { return true }

var liveSpecs = map[string]liveSpec{
	"live-steady": {
		name: "live-steady", config: "J_J_J", periodic: never,
		exec: 20 * time.Microsecond, deadline: 200 * time.Millisecond, execScale: 1,
	},
	// The ledger holds an admitted job's 5.6 ms per stage against its 250 ms
	// deadline until the deadline passes (J_N_N has no idle reset), and the AUB
	// bound for two stages is reached at a utilization of 0.38 per processor:
	// about 25 jobs at a time, a third of the 300 jobs/s offered. The ledger
	// fills, refuses, and empties again once per deadline, which is once per
	// slice. A subjob really spins for 14 us.
	"live-overload": {
		name: "live-overload", config: "J_N_N", periodic: never,
		exec: 5600 * time.Microsecond, deadline: 250 * time.Millisecond, execScale: 0.0025,
	},
	"live-cached": {
		name: "live-cached", config: "T_N_N", periodic: always,
		exec: 20 * time.Microsecond, deadline: 200 * time.Millisecond, execScale: 1,
	},
	"live-churn": {
		name: "live-churn", config: "J_J_N",
		periodic: func(i int) bool { return i >= liveTasks/2 },
		exec:     20 * time.Microsecond, deadline: 200 * time.Millisecond, execScale: 1,
		churn: true,
	},
}

// liveTask builds one two-stage task of the common shape.
func (s liveSpec) liveTask(id string, i int, periodic bool) *sched.Task {
	t := &sched.Task{ID: id, Deadline: s.deadline}
	if periodic {
		t.Kind, t.Period = sched.Periodic, s.deadline
	} else {
		t.Kind, t.MeanInterarrival = sched.Aperiodic, s.deadline
	}
	for st := 0; st < liveStages; st++ {
		home := (i + st) % liveProcs
		t.Subtasks = append(t.Subtasks, sched.Subtask{
			Index: st, Exec: s.exec, Processor: home, Replicas: []int{(home + 1) % liveProcs},
		})
	}
	return t
}

// workload builds the task set in code and hands it over as a spec.Workload,
// the form the deployment pipeline takes.
func (s liveSpec) workload() (*spec.Workload, []string) {
	tasks := make([]*sched.Task, liveTasks)
	ids := make([]string, liveTasks)
	for i := range tasks {
		ids[i] = fmt.Sprintf("t%02d", i)
		tasks[i] = s.liveTask(ids[i], i, s.periodic(i))
	}
	sched.AssignEDMSPriorities(tasks)
	return spec.FromTasks(s.name, liveProcs, tasks), ids
}

// liveRig is one deployed, warmed-up cluster with the instrument attached.
type liveRig struct {
	c        *cluster.Cluster
	rec      *recorder
	gen      *loadgen
	tasks    []string
	consumed chan struct{}
	startDur time.Duration // cluster.Start alone
	setupDur time.Duration // task set + plan + Start + watch + warm-up
}

// setupLive deploys the in-process cluster (manager + 3 application nodes,
// every event over TCP loopback sockets), subscribes the watch consumer and
// runs the warm-up, so that connections are dialled and per-task caches
// filled before anything is timed.
func setupLive(s liveSpec, seed int64, warmup int, jobsHint int) (*liveRig, error) {
	t0 := time.Now()
	cfg, err := core.ParseConfig(s.config)
	if err != nil {
		return nil, err
	}
	wl, ids := s.workload()
	c, err := cluster.Start(cluster.Options{Workload: wl, Config: cfg, ExecScale: s.execScale, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	rig := &liveRig{c: c, tasks: ids, consumed: make(chan struct{}), startDur: time.Since(t0)}
	// The buffer holds a whole second of events at saturation, so a
	// descheduled consumer never makes the hub drop one.
	watch, err := c.Watch(core.WatchOptions{Buffer: 1 << 16})
	if err != nil {
		_ = c.Stop() // the Watch error is the one to report
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	rig.rec = newRecorder(ids, liveWindow, jobsHint)
	go rig.rec.consume(watch.Events(), rig.consumed)
	rig.gen = newLoadgen(c, rig.rec, ids)
	rig.gen.runClosed(newTaskPicker(seed^0x5eed, len(ids)), phaseWarmup, warmup)
	if n := rig.gen.settle(); n != 0 {
		rig.close()
		return nil, fmt.Errorf("%s: warm-up left %d jobs unsettled", s.name, n)
	}
	rig.setupDur = time.Since(t0)
	return rig, nil
}

// close stops the cluster, which closes the watch stream, and waits for the
// consumer goroutine to drain it.
func (r *liveRig) close() {
	_ = r.c.Stop() // Stop on the live binding only tears down; it returns nil
	<-r.consumed
}

// controlOp is one control-plane call made by the churn goroutine.
type controlOp struct {
	name       string
	start, end int64
	err        error
	quiesce    time.Duration
	deferred   int64
}

// churnCycle is the control goroutine of live-churn: every controlEvery it
// makes the next call of the cycle Reconfigure(T_T_N) → AddTasks(X_k) →
// Reconfigure(J_J_N) → RemoveTasks(X_k). Once told to stop it finishes the
// cycle it is in without pausing, so the run ends in the starting
// configuration with no extra task deployed.
func churnCycle(s liveSpec, b binding, rec *recorder, stop <-chan struct{}, ops *[]controlOp) {
	perTask := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyNone}
	perJob := core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyNone}
	tick := time.NewTicker(controlEvery)
	defer tick.Stop()
	stopping := false
	for k := 0; ; k++ {
		step, cycle := k%4, k/4
		if stopping && step == 0 {
			return
		}
		if !stopping {
			select {
			case <-stop:
				stopping = true
				if step == 0 {
					return
				}
			case <-tick.C:
			}
		}
		x := fmt.Sprintf("x%d", cycle)
		op := controlOp{start: rec.now()}
		var rep *core.ReconfigReport
		switch step {
		case 0:
			op.name = "deploy.reconfigure"
			rep, op.err = b.Reconfigure(perTask)
		case 1:
			op.name = "deploy.add_tasks"
			op.err = b.AddTasks([]*sched.Task{s.liveTask(x, cycle, false)})
		case 2:
			op.name = "deploy.reconfigure"
			rep, op.err = b.Reconfigure(perJob)
		case 3:
			op.name = "deploy.remove_tasks"
			op.err = b.RemoveTasks([]string{x})
		}
		op.end = rec.now()
		if rep != nil {
			op.quiesce, op.deferred = rep.Quiesce, rep.Deferred
		}
		*ops = append(*ops, op)
	}
}

// liveOutcome is what one live run measured.
type liveOutcome struct {
	stats    jobStats
	cost     procCost
	setupDur time.Duration
	startDur time.Duration
	ops      []controlOp
	dropped  int64
	// traceOverhead is the traced slices' median decision latency against the
	// untraced slices', as a share gained.
	traceOverhead float64
	// violations are the binding-level correctness failures, beside the
	// per-job ones in stats.
	violations []string
}

// runLive measures one live workload on a freshly set-up cluster. With a
// tracer, every other slice of the window is traced, starting with the first.
func runLive(s liveSpec, seed int64, warmup int, window time.Duration, tr *tracer) (*liveOutcome, error) {
	jobsHint := int(window.Seconds()*6000) + warmup
	rig, err := setupLive(s, seed, warmup, jobsHint)
	if err != nil {
		return nil, err
	}
	rig.gen.traced, rig.gen.alternate = tr != nil, tr != nil
	out := &liveOutcome{setupDur: rig.setupDur, startDur: rig.startDur}
	epoch0 := rig.c.Snapshot().Epoch

	var stop, stopped chan struct{}
	if s.churn {
		out.ops = make([]controlOp, 0, int(window/controlEvery)+8)
		stop, stopped = make(chan struct{}), make(chan struct{})
		go func() {
			churnCycle(s, rig.c, rig.rec, stop, &out.ops)
			close(stopped)
		}()
	}

	before := sampleProc()
	start := time.Now()
	rig.gen.startSlices(rig.rec.at(start))
	// The window closes when the clock says its time is up, or when the
	// generator gets there if it ran late.
	rig.gen.runOpen(poissonSchedule(seed, openLoopRate, window, len(rig.tasks)), start)
	time.Sleep(time.Until(start.Add(window)))
	rig.gen.marks = append(rig.gen.marks, mark{at: rig.rec.now(), cpu: cpuTime()})
	if s.churn {
		close(stop)
		<-stopped
	}
	unsettled := rig.gen.settle()
	after := sampleProc()

	violate := func(format string, args ...any) {
		out.violations = append(out.violations, fmt.Sprintf(format, args...))
	}
	if unsettled != 0 {
		violate("%d jobs still outstanding after settle", unsettled)
	}
	snap := settledSnapshot(rig.c)
	if snap.Released != snap.Completed {
		violate("snapshot: released %d != completed %d", snap.Released, snap.Completed)
	}
	if snap.Arrived != snap.Released+snap.Skipped {
		violate("snapshot: arrived %d != released %d + skipped %d", snap.Arrived, snap.Released, snap.Skipped)
	}
	if snap.WatchDropped != 0 {
		violate("watch dropped %d events", snap.WatchDropped)
	}
	out.dropped = snap.WatchDropped
	if ac, err := rig.c.AC(); err != nil {
		violate("admission controller: %v", err)
	} else if err := ac.AuditLedger(); err != nil {
		violate("ledger audit: %v", err)
	}
	reconfigs := int64(0)
	for _, op := range out.ops {
		if op.err != nil {
			violate("%s failed: %v", op.name, op.err)
		}
		if op.name == "deploy.reconfigure" {
			reconfigs++
		}
	}
	if snap.Epoch-epoch0 < reconfigs {
		violate("epoch advanced by %d over %d reconfigurations", snap.Epoch-epoch0, reconfigs)
	}
	rig.close()

	out.stats = rig.rec.collect(rig.tasks, rig.gen.marks)
	out.cost = costBetween(before, after, out.stats.Decided)
	if share := float64(out.stats.Accepted) / float64(max(out.stats.Decided, 1)); s.name == "live-overload" && (share <= 0 || share >= 1) {
		violate("accepted share %.3f: the overload workload must admit some jobs and refuse some", share)
	}
	if tr != nil {
		tr.addJobs(rig.rec, rig.tasks)
		for i, op := range out.ops {
			tr.add(fmt.Sprintf("control/%d", i), 0, op.name, op.start, op.end)
		}
		out.traceOverhead = out.stats.traceOverhead()
	}
	return out, nil
}

// settledSnapshot reads the binding's counters once they agree, giving the
// last arrivals and completions a moment to reach the collector.
func settledSnapshot(b binding) core.BindingSnapshot {
	deadline := time.Now().Add(time.Second)
	for {
		snap := b.Snapshot()
		agree := snap.Released == snap.Completed && snap.Arrived == snap.Released+snap.Skipped
		if agree || !time.Now().Before(deadline) {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
}
