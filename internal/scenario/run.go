// Scenario execution and replay are a deterministic-replay surface: a sim
// run of a given spec is bit-reproducible, and replay must re-derive it.
//
//rtmw:deterministic file
package scenario

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/autopilot"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sched"
	wspec "repro/internal/spec"
	"repro/internal/workload"
)

// Binding names for Result.Binding.
const (
	BindingSim  = "sim"
	BindingLive = "live"
)

// Result is one scenario execution's outcome on one binding, including the
// invariant verdict.
type Result struct {
	// Scenario, Binding, Config, Horizon and Seed identify the run.
	Scenario string         `json:"scenario"`
	Binding  string         `json:"binding"`
	Config   string         `json:"config"`
	Horizon  wspec.Duration `json:"horizon"`
	Seed     int64          `json:"seed"`
	// TimeScale is the live compression factor (zero on the simulation).
	TimeScale float64 `json:"time_scale,omitempty"`
	// Ops is the compiled timeline length; FilteredArrivals counts arrivals
	// dropped because their task was not active (not yet added, or already
	// removed) when they fired.
	Ops              int `json:"ops"`
	FilteredArrivals int `json:"filtered_arrivals"`
	// Arrived through Lost are the run totals; Lost is Released − Completed
	// after the drain.
	Arrived   int64 `json:"arrived"`
	Released  int64 `json:"released"`
	Skipped   int64 `json:"skipped"`
	Completed int64 `json:"completed"`
	Missed    int64 `json:"missed"`
	Lost      int64 `json:"lost"`
	// Ratio is the accepted utilization ratio on the simulation and the
	// released/arrived count ratio on the live binding (whose counters do
	// not carry utilizations).
	Ratio float64 `json:"ratio"`
	// MissRate is the deadline-miss fraction over completed jobs.
	MissRate float64 `json:"miss_rate"`
	// Epoch is the final reconfiguration epoch.
	Epoch int64 `json:"epoch"`
	// WatchEvents, WatchDropped and WatchOrdered describe the run's watch
	// stream; LedgerClean the post-run admission-ledger audit.
	WatchEvents  int64 `json:"watch_events"`
	WatchDropped int64 `json:"watch_dropped"`
	WatchOrdered bool  `json:"watch_ordered"`
	LedgerClean  bool  `json:"ledger_clean"`
	// Wall is the execution's wall-clock time.
	Wall time.Duration `json:"wall_ns"`
	// Reconfigs is what each reconfigure op of the timeline cost, in order
	// (the autopilot's own actuations are in Decisions); NodeFaults what each
	// kill_node op did, on the live binding — the simulation has no node model.
	Reconfigs  []core.ReconfigReport `json:"reconfigs,omitempty"`
	NodeFaults []NodeFault           `json:"node_faults,omitempty"`
	// Actuations, RegimeChanges and Decisions describe the autopilot when
	// the spec enables it: total Reconfigure actuations, classified regime
	// transitions, and the controller's decision journal.
	Actuations    int64                `json:"actuations,omitempty"`
	RegimeChanges int64                `json:"regime_changes,omitempty"`
	Decisions     []autopilot.Decision `json:"decisions,omitempty"`
	// MetricsJSON is the sim run's canonical metrics document — the
	// byte-identity artifact of the determinism guarantee. Excluded from
	// the marshaled result (the scenario JSON output stays compact).
	MetricsJSON []byte `json:"-"`
	// Violations lists every invariant the run broke; Passed is their
	// absence.
	Violations []string `json:"violations,omitempty"`
	Passed     bool     `json:"passed"`
}

// NodeFault is what one node loss cost: a kill_node op and, when the
// timeline has one, the recover_node op that followed it.
type NodeFault struct {
	// InFlightAtKill is Released − Completed the instant before the kill:
	// the admitted jobs the failover must not lose.
	InFlightAtKill int64 `json:"in_flight_at_kill"`
	// Failover is the failover transaction's report; it names the processor.
	Failover cluster.FailoverReport `json:"failover"`
	// Recovery is how long RecoverNode took (fresh node plus redeploy); zero
	// when the node was never recovered.
	Recovery time.Duration `json:"recovery_ns"`
	// DownSeen and RecoveredSeen report that the watch stream carried the
	// node's WatchNodeDown and WatchNodeRecovered events.
	DownSeen      bool `json:"node_down_seen"`
	RecoveredSeen bool `json:"node_recovered_seen"`
}

// judge applies the spec's invariant block to the finished run, filling
// Violations and Passed. Live runs use the block's live overrides where
// present.
func (r *Result) judge(inv *Invariants) {
	var v []string
	if inv.ZeroAdmittedLoss && r.Lost != 0 {
		v = append(v, fmt.Sprintf("zeroAdmittedLoss: %d admitted jobs lost (released %d, completed %d)", r.Lost, r.Released, r.Completed))
	}
	if inv.LedgerAudit && !r.LedgerClean {
		v = append(v, "ledgerAudit: admission ledger inconsistent after run")
	}
	if inv.WatchOrdering && !r.WatchOrdered {
		v = append(v, "watchOrdering: watch stream delivered out-of-order sequence numbers")
	}
	maxMiss, minArrived, maxAct := inv.MaxMissRate, inv.MinArrived, inv.MaxActuations
	if live := inv.Live; r.Binding == BindingLive && live != nil {
		if live.MaxMissRate != nil {
			maxMiss = live.MaxMissRate
		}
		if live.MinArrived != nil {
			minArrived = *live.MinArrived
		}
		if live.MaxActuations != nil {
			maxAct = live.MaxActuations
		}
	}
	if maxMiss != nil && r.MissRate > *maxMiss {
		v = append(v, fmt.Sprintf("maxMissRate: miss rate %.4f exceeds ceiling %.4f", r.MissRate, *maxMiss))
	}
	if minArrived > 0 && r.Arrived < minArrived {
		v = append(v, fmt.Sprintf("minArrived: only %d arrivals, expected at least %d", r.Arrived, minArrived))
	}
	if inv.MaxWatchDropped != nil && r.WatchDropped > *inv.MaxWatchDropped {
		v = append(v, fmt.Sprintf("maxWatchDropped: %d events dropped, cap %d", r.WatchDropped, *inv.MaxWatchDropped))
	}
	if maxAct != nil && r.Actuations > *maxAct {
		v = append(v, fmt.Sprintf("maxActuations: autopilot actuated %d times, cap %d", r.Actuations, *maxAct))
	}
	r.Violations, r.Passed = v, len(v) == 0
}

// scenarioWatchBuffer sizes the run's watch stream: scenarios burst tens of
// thousands of lifecycle events, and a recording run must not shed any.
const scenarioWatchBuffer = 1 << 16

// binding is the op surface apply drives; *core.SimSystem and
// *cluster.Cluster both satisfy it.
type binding interface {
	Watch(opts core.WatchOptions) (*core.WatchStream, error)
	SubmitBatch(ids []string) ([]core.Admission, error)
	AddTasks(tasks []*sched.Task) error
	RemoveTasks(ids []string) error
	Reconfigure(to core.Config) (*core.ReconfigReport, error)
	Snapshot() core.BindingSnapshot
}

// nodeBinding is the node-fault surface, which only the live cluster has;
// without it a node fault is a journaled timeline marker and nothing else.
type nodeBinding interface {
	KillNode(i int) error
	Failover(proc int) (*cluster.FailoverReport, error)
	RecoverNode(i int) error
}

// run is one execution's state: the binding, the active task set, the
// recorder, the watch consumer, and what the ops returned. Its apply is the only
// code that performs a timeline op, whichever of RunSim, RunLive and Replay feeds it.
type run struct {
	b     binding
	procs int
	// scale is the live time compression and origin the wall-clock instant
	// of scenario time zero; 1 and 0 on the simulation.
	scale  float64
	origin time.Duration
	rec    *Recorder
	res    *Result

	// The watch consumer's tallies, read once it has exited.
	stream     *core.WatchStream
	watched    chan struct{}
	events     int64
	ordered    bool
	down, back map[string]bool

	// mu guards what follows: on the live binding the autopilot's goroutine
	// retires shed tasks while the timeline filters against them.
	mu        sync.Mutex
	active    map[string]bool
	reconfigs []*core.ReconfigReport // the sim fills a report once its swap runs
	err       error                  // first failed op of a sim run, whose callbacks cannot return one
}

// newRun starts a run on a built binding: every initial task is active and
// the watch stream is being consumed.
func newRun(b binding, res *Result, tasks []*sched.Task, procs int, scale float64, rec *Recorder) (*run, error) {
	stream, err := b.Watch(core.WatchOptions{Buffer: scenarioWatchBuffer})
	if err != nil {
		return nil, err
	}
	r := &run{
		b: b, procs: procs, scale: scale, rec: rec, res: res,
		stream: stream, watched: make(chan struct{}), ordered: true,
		down: make(map[string]bool), back: make(map[string]bool),
		active: make(map[string]bool, len(tasks)),
	}
	for _, t := range tasks {
		r.active[t.ID] = true
	}
	go r.watch()
	return r, nil
}

// watch consumes the binding's watch stream, recording it when asked to.
func (r *run) watch() {
	defer close(r.watched)
	var lastSeq int64
	for ev := range r.stream.Events() {
		r.ordered = r.ordered && ev.Seq > lastSeq
		lastSeq = ev.Seq
		r.events++
		switch ev.Kind {
		case core.WatchNodeDown:
			r.down[ev.Task] = true
		case core.WatchNodeRecovered:
			r.back[ev.Task] = true
		}
		if r.rec != nil {
			r.rec.Event(ev)
		}
	}
}

// journal records an applied op.
func (r *run) journal(op Op) {
	if r.rec != nil {
		r.rec.Op(op)
	}
}

// activeOf returns the IDs that name an active task, in order.
func (r *run) activeOf(ids []string) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if r.active[id] {
			out = append(out, id)
		}
	}
	return out
}

// retire takes tasks out of the active set: their remaining arrivals are
// filtered rather than submitted into an error.
func (r *run) retire(ids []string) {
	for _, id := range ids {
		delete(r.active, id)
	}
}

// apply performs one timeline op: filter it against the active task set,
// journal what is left, make the one binding call the kind stands for, and
// keep what the call returned. A new injection kind is one case here.
func (r *run) apply(op Op) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	nodes, hasNodes := r.b.(nodeBinding)
	switch op.Op {
	case OpSubmit:
		ids := r.activeOf(op.Tasks)
		r.res.FilteredArrivals += len(op.Tasks) - len(ids)
		if len(ids) == 0 {
			return nil
		}
		op.Tasks = ids
		r.journal(op)
		_, err := r.b.SubmitBatch(ids)
		return err
	case InjectAddTasks:
		added, err := injectionTasks(op.Add, r.procs)
		if err != nil {
			return err
		}
		r.journal(op)
		if r.scale != 1 {
			added = workload.Scale(added, 1/r.scale)
		}
		if err := r.b.AddTasks(added); err != nil {
			return err
		}
		for _, t := range added {
			r.active[t.ID] = true
		}
	case InjectRemoveTasks:
		ids := r.activeOf(op.IDs)
		if len(ids) == 0 {
			return nil
		}
		op.IDs = ids
		r.journal(op)
		if err := r.b.RemoveTasks(ids); err != nil {
			return err
		}
		r.retire(ids)
	case InjectReconfigure:
		to, err := core.ParseConfig(op.To)
		if err != nil {
			return err
		}
		r.journal(op)
		rep, err := r.b.Reconfigure(to)
		if err != nil {
			return err
		}
		r.reconfigs = append(r.reconfigs, rep)
	case InjectKillNode:
		// Kill the node abruptly, then run the failover synchronously so the
		// timeline's ordering stays deterministic: every later op sees the
		// post-failover placement. Tasks the failover withdrew (no surviving
		// replica) leave the active set.
		r.journal(op)
		if !hasNodes {
			return nil
		}
		inFlight := r.b.Snapshot().InFlight
		if err := nodes.KillNode(*op.Node); err != nil {
			return err
		}
		rep, err := nodes.Failover(*op.Node)
		if err != nil {
			return err
		}
		r.retire(rep.Withdrawn)
		r.res.NodeFaults = append(r.res.NodeFaults, NodeFault{InFlightAtKill: inFlight, Failover: *rep})
	case InjectRecoverNode:
		r.journal(op)
		if !hasNodes {
			return nil
		}
		start := time.Now()
		if err := nodes.RecoverNode(*op.Node); err != nil {
			return err
		}
		// Validation made a node's kills and recovers alternate, so its latest
		// fault is the one this op ends.
		for i := len(r.res.NodeFaults) - 1; i >= 0; i-- {
			if f := &r.res.NodeFaults[i]; f.Failover.Proc == *op.Node {
				f.Recovery = time.Since(start)
				break
			}
		}
	default:
		return fmt.Errorf("scenario: unknown op kind %q", op.Op)
	}
	return nil
}

// autopilot builds the spec's controller with its actuations journaled as
// replayable ops in the scenario timebase (at is the binding's clock). A shed
// retires its victims from the active set before the controller removes
// them, so the timeline never submits to a task the binding has just dropped.
func (r *run) autopilot(a *AutopilotSpec) (*autopilot.Autopilot, error) {
	opts, err := a.options()
	if err != nil {
		return nil, err
	}
	scenarioTime := func(at time.Duration) wspec.Duration {
		return wspec.Duration(float64(at-r.origin) * r.scale)
	}
	opts = opts.Scale(r.scale)
	opts.OnAction = func(at time.Duration, from, to core.Config) {
		r.journal(Op{At: scenarioTime(at), Op: InjectReconfigure, To: to.String()})
	}
	opts.OnShed = func(at time.Duration, ids []string) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if ids = r.activeOf(ids); len(ids) > 0 {
			r.journal(Op{At: scenarioTime(at), Op: InjectRemoveTasks, IDs: ids})
			r.retire(ids)
		}
	}
	return autopilot.New(opts)
}

// finish closes the run's books once the binding has drained; missed is the
// binding's own miss count, which its snapshot lacks.
func (r *run) finish(ap *autopilot.Autopilot, missed int64) {
	res, snap := r.res, r.b.Snapshot()
	res.Arrived, res.Released, res.Skipped, res.Completed = snap.Arrived, snap.Released, snap.Skipped, snap.Completed
	res.Missed, res.Lost, res.Epoch = missed, snap.Released-snap.Completed, snap.Epoch
	if res.Completed > 0 {
		res.MissRate = float64(res.Missed) / float64(res.Completed)
	}
	r.stream.Cancel()
	<-r.watched
	res.WatchEvents, res.WatchDropped, res.WatchOrdered = r.events, r.stream.Dropped(), r.ordered
	for i := range res.NodeFaults {
		f := &res.NodeFaults[i]
		f.DownSeen = r.down[f.Failover.Node]
		f.RecoveredSeen = f.Recovery > 0 && r.back[f.Failover.Node]
	}
	for _, rep := range r.reconfigs {
		res.Reconfigs = append(res.Reconfigs, *rep)
	}
	if ap != nil {
		st := ap.Stats()
		res.Actuations, res.RegimeChanges, res.Decisions = st.Actuations, st.RegimeChanges, ap.Journal()
	}
}

// RunSim executes the scenario on the deterministic simulation binding.
// Arrivals are open-loop (ExternalArrivals), driven entirely by the compiled
// timeline, so two runs of the same spec are identical event-for-event. When
// rec is non-nil the applied (post-filter) ops and the watch stream are recorded.
func RunSim(s *Spec, rec *Recorder) (*Result, error) {
	c, err := compile(s)
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: s.Name, Binding: BindingSim, Config: s.Config, Horizon: s.Horizon, Seed: s.Seed}
	if err := runSim(res, c.tasks, c.procs, c.ops, s.Autopilot, rec); err != nil {
		return nil, err
	}
	res.judge(s.Invariants)
	return res, nil
}

// runSim is the simulation driver, shared by RunSim (compiled ops) and
// Replay (a journal's ops): it builds the open-loop simulation res
// identifies, schedules apply for every op at its virtual time, runs, and
// fills res.
func runSim(res *Result, tasks []*sched.Task, procs int, ops []Op, auto *AutopilotSpec, rec *Recorder) error {
	cfg, err := core.ParseConfig(res.Config)
	if err != nil {
		return err
	}
	sim, err := core.NewSimSystem(core.SimConfig{
		Strategies:       cfg,
		NumProcs:         procs,
		Horizon:          time.Duration(res.Horizon),
		Seed:             res.Seed,
		ExternalArrivals: true,
	}, tasks)
	if err != nil {
		return err
	}
	r, err := newRun(sim, res, tasks, procs, 1, rec)
	if err != nil {
		return err
	}
	res.Ops = len(ops)
	for i, op := range ops {
		// An At callback cannot return an error: the first one sticks and
		// fails the run after it.
		err := sim.At(time.Duration(op.At), func() {
			if err := r.apply(op); err != nil && r.err == nil {
				r.err = err
			}
		})
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}

	// The autopilot attaches after the timeline is scheduled, so at any
	// shared instant its decision tick runs after that instant's arrivals —
	// the controller sees the freshest window, and a recorded actuation
	// lands after the same-instant ops in the journal, which is exactly the
	// order Replay re-schedules. Its hooks run on the engine thread, inside
	// the tick callback.
	var ap *autopilot.Autopilot
	if auto != nil && auto.Enabled {
		if ap, err = r.autopilot(auto); err != nil {
			return err
		}
		if err := ap.AttachSim(sim, time.Duration(auto.At), time.Duration(res.Horizon)); err != nil {
			return err
		}
	}

	start := time.Now()
	m := sim.Run() // panics on ledger inconsistency; audited again below
	res.Wall = time.Since(start)
	res.LedgerClean = sim.Controller().Ledger().CheckInvariants() == nil
	r.finish(ap, m.Total.Missed)
	res.Ratio = m.AcceptedUtilizationRatio()
	if err := sim.Stop(); err != nil {
		return err
	}
	if r.err != nil {
		return r.err
	}
	res.MetricsJSON, err = CanonicalMetricsJSON(res.Scenario, m)
	return err
}

// RunLive executes the scenario on the live loopback cluster. The workload
// and every joining task are compressed by the time-scale factor (zero
// means the spec's setting), the timeline plays back against the wall clock
// at the same compression, and the run drains before the invariant check.
// When rec is non-nil, ops are recorded in the scenario's unscaled virtual
// timebase so the journal replays into the simulation.
func RunLive(s *Spec, timeScale float64, rec *Recorder) (*Result, error) {
	c, err := compile(s)
	if err != nil {
		return nil, err
	}
	cfg, err := core.ParseConfig(s.Config)
	if err != nil {
		return nil, err
	}
	scale := s.timeScale(timeScale)
	wall := func(at wspec.Duration) time.Duration { return time.Duration(float64(at) / scale) }

	start := time.Now()
	cl, err := cluster.Start(cluster.Options{
		Workload: wspec.FromTasks(s.Name, c.procs, workload.Scale(c.tasks, 1/scale)),
		Config:   cfg, Seed: s.Seed,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	res := &Result{
		Scenario: s.Name, Binding: BindingLive, Config: s.Config,
		Horizon: s.Horizon, Seed: s.Seed, TimeScale: scale, Ops: len(c.ops),
	}
	r, err := newRun(cl, res, c.tasks, c.procs, scale, rec)
	if err != nil {
		return nil, err
	}
	base := time.Now()
	r.origin = time.Duration(base.UnixNano())

	// The live controller runs on the wall clock, its options compressed like
	// the workload, on a goroutine of its own.
	var ap *autopilot.Autopilot
	if s.Autopilot != nil && s.Autopilot.Enabled {
		if ap, err = r.autopilot(s.Autopilot); err != nil {
			return nil, err
		}
		if err := ap.Start(cl); err != nil {
			return nil, err
		}
		defer ap.Stop()
	}

	for _, op := range c.ops {
		time.Sleep(time.Until(base.Add(wall(op.At))))
		if err := r.apply(op); err != nil {
			return nil, err
		}
	}
	// Play out the remaining horizon, halt the controller there so the
	// drain's emptying queues don't read as one more regime change, and
	// drain: an admitted job still unfinished at the deadline counts as lost.
	time.Sleep(time.Until(base.Add(wall(s.Horizon))))
	if ap != nil {
		ap.Stop()
	}
	cl.Drain(10 * time.Second)
	res.Wall = time.Since(start)

	// The live audit covers the AC's one ledger, on the manager.
	res.LedgerClean = cl.AuditAdmissionState() == nil
	r.finish(ap, cl.Collector().Missed())
	if res.Arrived > 0 {
		res.Ratio = float64(res.Released) / float64(res.Arrived)
	}
	res.judge(s.Invariants)
	return res, nil
}
