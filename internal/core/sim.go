package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/des"
	"repro/internal/sched"
)

// SimConfig parameterizes a simulated run of the middleware over a workload.
type SimConfig struct {
	// Strategies selects the AC/IR/LB combination under test.
	Strategies Config
	// NumProcs is the number of application processors. The task manager
	// (AC + LB) is a separate node, as in the paper's testbed.
	NumProcs int
	// LinkDelay is the one-way event/invocation delay between nodes. It
	// defaults to 322 µs, the mean one-way delay the paper measured on its
	// 100 Mbps switch (Figure 8).
	LinkDelay time.Duration
	// ACDelay is the task-manager-side processing time per admission
	// decision (the admission test plus, when enabled, the load balancer's
	// Location call). It defaults to 150 µs, consistent with the paper's
	// sub-millisecond AC-side operation costs.
	ACDelay time.Duration
	// Horizon is the workload duration; arrivals stop at the horizon and the
	// run drains in-flight jobs afterwards. Defaults to 5 minutes, the
	// paper's experiment length.
	Horizon time.Duration
	// Seed drives aperiodic interarrival sampling. Runs with equal seeds and
	// workloads are bit-identical.
	Seed int64
	// Trace records per-job lifecycle events (see Trace); off by default.
	Trace bool
	// ExternalArrivals disables the workload's own arrival processes: Run
	// schedules no periodic releases or Poisson arrivals, and AddTasks
	// registers tasks without starting theirs, so every job enters through
	// Submit/SubmitBatch (typically from At callbacks). This is the scenario
	// engine's open-loop mode: the arrival timeline is fully caller-supplied,
	// which is what makes a recorded timeline replayable bit-for-bit.
	ExternalArrivals bool
}

// withDefaults fills unset fields.
func (c SimConfig) withDefaults() SimConfig {
	if c.LinkDelay == 0 {
		c.LinkDelay = 322 * time.Microsecond
	}
	if c.ACDelay == 0 {
		c.ACDelay = 150 * time.Microsecond
	}
	if c.Horizon == 0 {
		c.Horizon = 5 * time.Minute
	}
	return c
}

// simTask is one task's runtime state in the simulation: its task effector
// state machine, next job number and metric accumulator. It is created at
// the task's first arrival, cut from a chunk of simChunk, so a task that
// never arrives costs one nil pointer.
type simTask struct {
	eff     Effector
	nextJob int64
	acc     *MetricAcc
}

// simChunk is how many simTask records one allocation holds.
const simChunk = 64

// Typed simulation event kinds. Every hot-path transition of the simulated
// middleware is a des.Event dispatched through SimSystem.HandleEvent, so
// steady-state arrivals schedule no closures. Payload conventions: A is a
// dense task index or pool slot, B a secondary slot or stage, N a job
// number, D an arrival time.
const (
	// evArrive fires a job arrival at the task effector. A = task index.
	evArrive int32 = iota + 1
	// evManagerArrive is the TE's "Task Arrive" event reaching the task
	// manager after one link delay. A = task, N = job, D = arrival.
	evManagerArrive
	// evDecide runs the manager-side LB Location call + admission test after
	// the AC processing delay. A = task, N = job, D = arrival.
	evDecide
	// evExpire removes an accepted job's remaining contributions at its
	// absolute deadline. A = task, N = job.
	evExpire
	// evDeliver applies the AC decision back at the task effector after one
	// link delay. A = task, B = decision pool slot, N = job.
	evDeliver
	// evStageDone is a subjob completion delivered by the simulated
	// processor. A = released-job pool slot, B = stage.
	evStageDone
	// evStageStart submits the next stage after a cross-processor trigger
	// event (one link delay). A = released-job pool slot, B = stage.
	evStageStart
	// evIdleReport delivers an idle-resetting report to the AC after one
	// link delay. A = report pool slot.
	evIdleReport
	// evReconfigQuiesce begins a reconfiguration: admission is quiesced (new
	// arrivals defer) while in-flight decision round trips drain. A = index
	// into the scheduled reconfiguration ops.
	evReconfigQuiesce
	// evReconfigSwap completes a reconfiguration after the quiesce window:
	// strategies swap atomically and the deferred arrivals replay under the
	// new configuration. A = reconfiguration op index.
	evReconfigSwap
)

// deferredArrival is one job arrival held back while admission is quiesced
// during a reconfiguration; it replays through the normal decision routing
// once the new configuration is in place.
type deferredArrival struct {
	task    int32
	job     int64
	arrival time.Duration
}

// reconfigOp is one scheduled reconfiguration: the target configuration,
// the report the swap fills in when it executes, and the virtual time the
// quiesce began.
type reconfigOp struct {
	to         Config
	report     *ReconfigReport
	quiescedAt time.Duration
}

// verdict is a decide step's output parked while its "Accept" event crosses
// the link: the decision and whether the task effector may cache it.
type verdict struct {
	d     Decision
	cache bool
}

// relJob is one released, in-flight job in the pooled job table: the state
// the old closure chain used to capture, now indexed by slot so stage events
// carry a single int32. The placement slice is copied in at release and its
// capacity is reused across occupants.
type relJob struct {
	task      int32
	job       int64
	arrival   time.Duration
	placement []sched.PlacedStage
}

// SimSystem wires the configurable components onto the discrete-event
// substrate: one simulated processor per application node, an IR component
// and task-effector state per node, and the centralized AC+LB controller on
// the task manager node.
//
// A task's index in tasks is its sched.TaskRef: task i of the workload holds
// ref i, AddTasks appends, and no index is reused. The task table's name
// index is the binding's name edge (Submit, AddTasks, RemoveTasks); the
// controller and its ledger key everything on the ref, as do the runtime
// state, events and pools here, so a steady-state arrival
// performs no string-keyed lookup and no allocation in the simulation
// layer.
type SimSystem struct {
	cfg     SimConfig
	eng     *des.Engine
	procs   []*des.Processor
	irs     []*IdleResetter
	links   *des.Link
	ctrl    *Controller
	rng     *rand.Rand
	tab     *sched.TaskTable
	tasks   []*sched.Task // tab's tasks, by ref
	state   []*simTask    // by ref; nil until the task's first arrival
	slab    []simTask
	metrics Metrics
	trace   []TraceEvent

	// Open-world state: removed marks dense task slots withdrawn by
	// RemoveTasks (slots are never reused — in-flight events address tasks by
	// index), started records that Run has scheduled the workload arrivals,
	// and hub fans lifecycle events out to Watch streams.
	removed []bool
	started bool
	hub     WatchHub

	// Reconfiguration state: while quiescing, new arrivals defer instead of
	// entering the decision path; the swap event replays them under the new
	// configuration. inFlight tracks released-but-uncompleted jobs for the
	// Binding snapshot and the reconfiguration reports.
	epoch     int64
	quiescing bool
	deferred  []deferredArrival
	reconfigs []reconfigOp
	reports   []ReconfigReport
	inFlight  int64
	stopped   bool

	// Pools for in-flight event payloads too wide for a des.Event.
	jobs      []relJob
	freeJobs  []int32
	decs      []verdict
	freeDecs  []int32
	irReports [][]sched.Entry[sched.JobKey]
	freeReps  []int32
	// acts is the effector's reusable action buffer.
	acts []Action
}

// NewSimSystem builds a simulation over the given tasks. Tasks are cloned;
// EDMS priorities are assigned from end-to-end deadlines. Every referenced
// processor must be within [0, NumProcs).
func NewSimSystem(cfg SimConfig, tasks []*sched.Task) (*SimSystem, error) {
	cfg = cfg.withDefaults()
	if cfg.NumProcs <= 0 {
		return nil, fmt.Errorf("core: sim needs at least one application processor")
	}
	if err := cfg.Strategies.Validate(); err != nil {
		return nil, err
	}
	// One counting pass sizes three slabs (tasks, subtasks, replica lists), so
	// a request costs the same few allocations whatever its task count. Each
	// clone's Subtasks and Replicas are three-index sub-slices of the slabs:
	// cap == len, so an append reallocates instead of writing into a neighbour.
	var nSub, nRep int
	for _, t := range tasks {
		nSub += len(t.Subtasks)
		for i := range t.Subtasks {
			nRep += len(t.Subtasks[i].Replicas)
		}
	}
	slab := make([]sched.Task, len(tasks))
	subs := make([]sched.Subtask, nSub)
	reps := make([]int, nRep)
	cloned := make([]*sched.Task, len(tasks))
	taskIdx := make(map[string]sched.TaskRef, len(tasks))
	for i, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		// One hash per task: a duplicate ID does not grow the index.
		taskIdx[t.ID] = sched.TaskRef(i)
		if len(taskIdx) != i+1 {
			return nil, fmt.Errorf("core: duplicate task ID %q", t.ID)
		}
		if err := checkProcs(t, cfg.NumProcs); err != nil {
			return nil, err
		}
		if t.Kind == sched.Aperiodic && t.MeanInterarrival <= 0 {
			return nil, fmt.Errorf("core: aperiodic task %s has no mean interarrival time", t.ID)
		}
		c := &slab[i]
		*c = *t
		n := len(t.Subtasks)
		c.Subtasks = subs[:n:n]
		subs = subs[n:]
		for j := range t.Subtasks {
			st := t.Subtasks[j]
			if r := len(st.Replicas); r > 0 {
				copy(reps, st.Replicas)
				st.Replicas = reps[:r:r]
				reps = reps[r:]
			} else {
				st.Replicas = nil
			}
			c.Subtasks[j] = st
		}
		cloned[i] = c
	}
	sched.AssignEDMSPriorities(cloned)
	tab := sched.NewTaskTable(cloned, taskIdx)
	ctrl, err := NewController(cfg.Strategies, cfg.NumProcs)
	if err != nil {
		return nil, err
	}

	eng := des.NewEngine()
	s := &SimSystem{
		cfg:     cfg,
		eng:     eng,
		ctrl:    ctrl,
		links:   des.NewLink(eng, cfg.LinkDelay),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		tab:     tab,
		tasks:   cloned,
		state:   make([]*simTask, len(cloned)),
		removed: make([]bool, len(cloned)),
	}
	s.procs = make([]*des.Processor, cfg.NumProcs)
	s.irs = make([]*IdleResetter, cfg.NumProcs)
	for i := 0; i < cfg.NumProcs; i++ {
		s.procs[i] = des.NewProcessor(eng, i)
		s.irs[i] = NewIdleResetter(cfg.Strategies.IR, i)
		if cfg.Strategies.IR != StrategyNone {
			i := i
			s.procs[i].SetIdleCallback(func() { s.reportIdle(i) })
		}
	}
	return s, nil
}

// checkProcs rejects a task that names a processor the simulation does not
// have, looking at each stage's home processor and then its replicas.
func checkProcs(t *sched.Task, numProcs int) error {
	outOfRange := func(p int) error {
		return fmt.Errorf("core: task %s references processor %d but sim has %d", t.ID, p, numProcs)
	}
	for i := range t.Subtasks {
		st := &t.Subtasks[i]
		if st.Processor >= numProcs {
			return outOfRange(st.Processor)
		}
		for _, p := range st.Replicas {
			if p >= numProcs {
				return outOfRange(p)
			}
		}
	}
	return nil
}

// Metrics returns the run's accounting. Valid after Run.
func (s *SimSystem) Metrics() *Metrics { return &s.metrics }

// Controller exposes the AC+LB policy object for instrumentation.
func (s *SimSystem) Controller() *Controller { return s.ctrl }

// Engine exposes the simulation engine (tests use it for clock access).
func (s *SimSystem) Engine() *des.Engine { return s.eng }

// task returns a task's runtime state, creating it (and with it the task's
// metric accumulator, so idle tasks never appear in the per-task metrics) at
// its first arrival.
func (s *SimSystem) task(ti int32) *simTask {
	if st := s.state[ti]; st != nil {
		return st
	}
	if len(s.slab) == 0 {
		s.slab = make([]simTask, simChunk)
	}
	st := &s.slab[0]
	s.slab = s.slab[1:]
	st.acc = s.metrics.Acc(s.tasks[ti])
	st.eff.Epoch(s.epoch, s.cfg.Strategies, s.tasks[ti].Kind)
	s.state[ti] = st
	return st
}

// Run executes the workload: arrivals from time zero to the horizon, then a
// drain window long enough for every in-flight job to finish or expire.
// After the drain it audits the admission ledger's indexes (CheckInvariants),
// so every simulated experiment doubles as an index-consistency test; an
// inconsistent ledger is a programming bug and panics loudly.
func (s *SimSystem) Run() *Metrics {
	if s.stopped {
		return &s.metrics
	}
	if !s.started {
		s.started = true
		if !s.cfg.ExternalArrivals {
			// At most one first arrival per task: size the event arena once
			// instead of growing it by doubling under the loop.
			s.eng.Reserve(len(s.tasks))
			for i := range s.tasks {
				if !s.removed[i] {
					s.scheduleFirstArrival(int32(i), 0)
				}
			}
		}
	}
	var maxDeadline time.Duration
	for _, t := range s.tasks {
		if t.Deadline > maxDeadline {
			maxDeadline = t.Deadline
		}
	}
	s.eng.RunUntil(s.cfg.Horizon + 2*maxDeadline + time.Second)
	if err := s.ctrl.Ledger().CheckInvariants(); err != nil {
		panic(fmt.Sprintf("core: ledger inconsistent after run: %v", err))
	}
	return &s.metrics
}

// --- Unified Binding surface + live reconfiguration protocol ---

// Submit injects one extra job arrival for the named task at the current
// virtual time, beyond the workload's own arrival process. It is the
// simulation half of the unified Binding surface: before Run it queues an
// arrival at time zero; called from inside an engine callback (see At) it
// arrives "now". The returned Admission carries the assigned job number and
// the decision state: per-task cached decisions resolve synchronously, every
// other arrival is Pending and resolves on the watch stream once the
// decision round trip completes in virtual time.
func (s *SimSystem) Submit(taskID string) (Admission, error) {
	adm := Admission{Task: taskID, Job: -1}
	if s.stopped {
		return adm, fmt.Errorf("core: sim: submit: %w", ErrStopped)
	}
	tr, ok := s.tab.Lookup(taskID)
	if !ok {
		return adm, fmt.Errorf("core: sim: submit: %w: %q", ErrUnknownTask, taskID)
	}
	a, deferred := s.admit(int32(tr), s.eng.Now())
	adm = a.Admission(taskID)
	if deferred {
		adm.Reason = "reconfiguration quiesce: arrival deferred"
	}
	return adm, nil
}

// SubmitBatch injects one arrival per named task at the current virtual
// time. The IDs are validated up front, so either every arrival is injected
// or none is.
func (s *SimSystem) SubmitBatch(taskIDs []string) ([]Admission, error) {
	if s.stopped {
		return nil, fmt.Errorf("core: sim: submit batch: %w", ErrStopped)
	}
	for _, id := range taskIDs {
		if _, ok := s.tab.Lookup(id); !ok {
			return nil, fmt.Errorf("core: sim: submit batch: %w: %q", ErrUnknownTask, id)
		}
	}
	out := make([]Admission, 0, len(taskIDs))
	for _, id := range taskIDs {
		adm, err := s.Submit(id)
		if err != nil {
			return out, err
		}
		out = append(out, adm)
	}
	return out, nil
}

// AddTasks registers new tasks on the running binding: each task gets the
// next ref (its runtime state is created at its first arrival),
// EDMS priorities are re-assigned over the whole active set — jobs already
// queued keep the priority they were submitted with; subsequent releases use
// the new assignment — and, when the run has started, the tasks' own arrival
// processes are scheduled from the current virtual time. IDs are validated
// against the active set before anything is registered, so the call is
// all-or-nothing. A removed ID may be re-registered; it gets a fresh ref
// and restarts job numbering at zero, and nothing still pending for the
// removed incarnation (an expiry, an idle report) can reach it.
func (s *SimSystem) AddTasks(tasks []*sched.Task) error {
	if s.stopped {
		return fmt.Errorf("core: sim: add tasks: %w", ErrStopped)
	}
	seen := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return err
		}
		if _, ok := s.tab.Lookup(t.ID); ok || seen[t.ID] {
			return fmt.Errorf("core: sim: add tasks: %w: %q", ErrTaskExists, t.ID)
		}
		seen[t.ID] = true
		if err := checkProcs(t, s.cfg.NumProcs); err != nil {
			return err
		}
		if t.Kind == sched.Aperiodic && t.MeanInterarrival <= 0 {
			return fmt.Errorf("core: aperiodic task %s has no mean interarrival time", t.ID)
		}
	}
	// A re-registered name's accumulator must find its first incarnation's.
	s.metrics.names()
	base := int32(len(s.tasks))
	now := s.eng.Now()
	for _, t := range tasks {
		s.tab.Intern(t.Clone())
		s.state = append(s.state, nil)
		s.removed = append(s.removed, false)
	}
	s.tasks = s.tab.Tasks()
	s.reassignPriorities()
	for i := base; i < int32(len(s.tasks)); i++ {
		if s.started && !s.cfg.ExternalArrivals {
			s.scheduleFirstArrival(i, now)
		}
		s.emit(WatchTaskAdded, i, -1, nil, 0)
	}
	return nil
}

// RemoveTasks withdraws tasks from the running binding: their remaining
// ledger contributions (including permanent per-task reservations) are
// released through the controller's task index, their arrival processes
// stop, and EDMS priorities are re-assigned over the survivors. Jobs already
// released keep executing to completion — removal never loses an admitted
// job — while arrivals still awaiting a decision resolve as rejected once
// their in-flight round trip drains. IDs are validated first, so the call is
// all-or-nothing.
func (s *SimSystem) RemoveTasks(ids []string) error {
	if s.stopped {
		return fmt.Errorf("core: sim: remove tasks: %w", ErrStopped)
	}
	tis := make([]int32, len(ids))
	seen := make(map[string]bool, len(ids))
	for i, id := range ids {
		tr, ok := s.tab.Lookup(id)
		if !ok || seen[id] {
			return fmt.Errorf("core: sim: remove tasks: %w: %q", ErrUnknownTask, id)
		}
		seen[id] = true
		tis[i] = int32(tr)
	}
	for _, ti := range tis {
		t := s.tasks[ti]
		s.removed[ti] = true
		// Unbind the name, so a re-added task gets a fresh ref, and withdraw
		// the ref's ledger state.
		s.tab.Drop(t.ID)
		s.ctrl.RemoveTask(sched.TaskRef(ti))
		s.emit(WatchTaskRemoved, ti, -1, nil, 0)
	}
	s.reassignPriorities()
	return nil
}

// Watch opens an ordered stream of lifecycle events (see WatchKind). Events
// are emitted in virtual-time order and delivered in strictly increasing Seq
// order; a consumer that falls behind the stream's buffer loses newest
// events (counted by Dropped) rather than stalling the simulation. Streams
// close when cancelled or when the binding stops.
func (s *SimSystem) Watch(opts WatchOptions) (*WatchStream, error) {
	if s.stopped {
		return nil, fmt.Errorf("core: sim: watch: %w", ErrStopped)
	}
	return s.hub.Subscribe(opts), nil
}

// At schedules fn at an absolute virtual time. It is the hook open-world
// callers use to drive Submit / AddTasks / RemoveTasks mid-run: the callback
// executes inside the engine between events, so binding calls made from it
// are ordinary same-thread operations.
func (s *SimSystem) At(at time.Duration, fn func()) error {
	if s.stopped {
		return fmt.Errorf("core: sim: at: %w", ErrStopped)
	}
	if now := s.eng.Now(); at < now {
		return fmt.Errorf("core: sim: at %v is in the past (now %v)", at, now)
	}
	s.eng.At(at, fn)
	return nil
}

// TaskIDs lists the binding's active (non-removed) task IDs in registration
// order.
func (s *SimSystem) TaskIDs() []string {
	out := make([]string, 0, len(s.tasks))
	for i, t := range s.tasks {
		if !s.removed[i] {
			out = append(out, t.ID)
		}
	}
	return out
}

// reassignPriorities re-runs the EDMS assignment over the active task set.
func (s *SimSystem) reassignPriorities() {
	active := make([]*sched.Task, 0, len(s.tasks))
	for i, t := range s.tasks {
		if !s.removed[i] {
			active = append(active, t)
		}
	}
	sched.AssignEDMSPriorities(active)
}

// Snapshot returns the binding's current configuration, epoch and aggregate
// job accounting.
func (s *SimSystem) Snapshot() BindingSnapshot {
	return BindingSnapshot{
		Config:       s.cfg.Strategies,
		Epoch:        s.epoch,
		Arrived:      s.metrics.Total.Arrived,
		Released:     s.metrics.Total.Released,
		Skipped:      s.metrics.Total.Skipped,
		Completed:    s.metrics.Total.Completed,
		InFlight:     s.inFlight,
		WatchDropped: s.hub.Dropped(),
	}
}

// Stop retires the binding: subsequent Run calls return the metrics
// accumulated so far, Submit and the lifecycle calls refuse new work, and
// every watch stream closes. The simulation holds no external resources, so
// Stop never fails.
func (s *SimSystem) Stop() error {
	s.stopped = true
	s.hub.CloseAll()
	return nil
}

// quiesceWindow is how long admission stays quiesced before the strategy
// swap: one manager-bound link delay plus the AC processing delay plus the
// link delay back covers the last decision round trip started before the
// quiesce, so by the swap instant no in-flight decision can be travelling.
// The extra nanosecond orders the swap after same-instant deliveries.
func (s *SimSystem) quiesceWindow() time.Duration {
	return 2*s.cfg.LinkDelay + s.cfg.ACDelay + time.Nanosecond
}

// ScheduleReconfig schedules a reconfiguration to the target combination at
// an absolute virtual time: the epoch-versioned two-phase protocol quiesces
// admission at that instant, swaps strategies after the quiesce window, and
// replays deferred arrivals under the new configuration. Invalid target
// combinations are rejected immediately, leaving the run untouched.
// Several reconfigurations may be scheduled to form a strategy schedule;
// overlapping windows execute back to back in order. The returned report is
// filled in when the swap executes (read it after Run).
func (s *SimSystem) ScheduleReconfig(at time.Duration, to Config) (*ReconfigReport, error) {
	if err := to.Validate(); err != nil {
		return nil, err
	}
	if now := s.eng.Now(); at < now {
		return nil, fmt.Errorf("core: sim: reconfigure at %v is in the past (now %v)", at, now)
	}
	rep := &ReconfigReport{From: s.cfg.Strategies, To: to}
	s.reconfigs = append(s.reconfigs, reconfigOp{to: to, report: rep})
	s.eng.AtEvent(at, s, des.Event{Kind: evReconfigQuiesce, A: int32(len(s.reconfigs) - 1)})
	return rep, nil
}

// Reconfigure is the Binding form of ScheduleReconfig: with the engine idle
// (before Run, or after a drain) no decision round trip can be in flight,
// so the swap applies synchronously and the returned report is complete.
// With events pending it schedules the protocol at the current virtual time
// and the report is completed once virtual time passes the quiesce window.
func (s *SimSystem) Reconfigure(to Config) (*ReconfigReport, error) {
	if s.eng.PendingCount() > 0 {
		return s.ScheduleReconfig(s.eng.Now(), to)
	}
	if err := to.Validate(); err != nil {
		return nil, err
	}
	rep := &ReconfigReport{InFlightBefore: s.inFlight}
	s.reconfigs = append(s.reconfigs, reconfigOp{to: to, report: rep, quiescedAt: s.eng.Now()})
	s.swapConfig(int32(len(s.reconfigs) - 1))
	return rep, nil
}

// ReconfigReports lists the completed reconfigurations in execution order.
func (s *SimSystem) ReconfigReports() []ReconfigReport { return s.reports }

// beginQuiesce starts a scheduled reconfiguration: admission quiesces (new
// arrivals defer via routeArrival) and the swap is scheduled after the
// quiesce window. If another reconfiguration is still draining, this one
// retries right after its swap completes.
func (s *SimSystem) beginQuiesce(idx int32) {
	if s.quiescing {
		s.eng.AfterEvent(s.quiesceWindow()+time.Nanosecond, s, des.Event{Kind: evReconfigQuiesce, A: idx})
		return
	}
	op := &s.reconfigs[idx]
	op.quiescedAt = s.eng.Now()
	op.report.InFlightBefore = s.inFlight
	s.quiescing = true
	s.eng.AfterEvent(s.quiesceWindow(), s, des.Event{Kind: evReconfigSwap, A: idx})
}

// swapConfig atomically installs the target configuration once the quiesce
// window has drained every in-flight decision round trip: the controller
// rebases its ledger and decision memory, the task effectors enter the new
// epoch (forgetting decisions made under the old configuration), idle
// resetters swap their rule, and the deferred arrivals replay — with their
// original arrival times — under the new configuration. No admitted job is
// touched: released jobs keep executing on their old placements.
func (s *SimSystem) swapConfig(idx int32) {
	op := &s.reconfigs[idx]
	from := s.cfg.Strategies
	released, err := s.ctrl.Reconfigure(op.to)
	if err != nil {
		// Targets are validated when scheduled; failing here is a bug.
		panic(fmt.Sprintf("core: sim: reconfigure to %s: %v", op.to, err))
	}
	s.cfg.Strategies = op.to
	s.epoch++
	for i, task := range s.state {
		if task != nil {
			task.eff.Epoch(s.epoch, op.to, s.tasks[i].Kind)
		}
	}

	// Idle resetters swap their rule; processors gain or drop the idle
	// detector to match.
	for i := range s.irs {
		s.irs[i].SetStrategy(op.to.IR)
		if op.to.IR == StrategyNone {
			s.procs[i].SetIdleCallback(nil)
		} else if from.IR == StrategyNone {
			i := i
			s.procs[i].SetIdleCallback(func() { s.reportIdle(i) })
		}
	}

	s.quiescing = false
	deferred := s.deferred
	s.deferred = nil
	*op.report = ReconfigReport{
		From:                 from,
		To:                   op.to,
		Epoch:                s.epoch,
		At:                   s.eng.Now(),
		Quiesce:              s.eng.Now() - op.quiescedAt,
		Deferred:             int64(len(deferred)),
		InFlightBefore:       op.report.InFlightBefore,
		InFlightAfter:        s.inFlight,
		ReservationsReleased: released,
	}
	s.reports = append(s.reports, *op.report)
	s.emit(WatchReconfigured, -1, -1, nil, 0)
	for _, d := range deferred {
		s.routeArrival(d.task, d.job, d.arrival)
	}
}

// scheduleFirstArrival schedules the first job arrival for a task. base is
// zero for the workload's construction-time tasks and the current virtual
// time for tasks added mid-run.
func (s *SimSystem) scheduleFirstArrival(ti int32, base time.Duration) {
	t := s.tasks[ti]
	at := base + t.Phase
	if t.Kind == sched.Aperiodic {
		at += s.exp(t.MeanInterarrival)
	}
	if at > s.cfg.Horizon {
		return
	}
	s.eng.AtEvent(at, s, des.Event{Kind: evArrive, A: ti})
}

// exp samples an exponential interarrival with the given mean (Poisson
// arrival process).
func (s *SimSystem) exp(mean time.Duration) time.Duration {
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	return time.Duration(-float64(mean) * math.Log(u))
}

// HandleEvent is the engine's dispatch target: a jump table over the typed
// simulation events. It is an implementation detail exposed only because the
// des engine calls it.
func (s *SimSystem) HandleEvent(ev des.Event) {
	switch ev.Kind {
	case evArrive:
		s.arrive(ev.A)
	case evManagerArrive:
		// On the task manager: queue the LB Location call + admission test
		// behind the AC processing delay.
		s.eng.AfterEvent(s.cfg.ACDelay, s, des.Event{Kind: evDecide, A: ev.A, N: ev.N, D: ev.D})
	case evDecide:
		s.decide(ev.A, ev.N, ev.D)
	case evExpire:
		s.ctrl.ExpireKey(sched.JobKey{Task: sched.TaskRef(ev.A), Job: ev.N})
	case evDeliver:
		v := s.decs[ev.B]
		s.freeDec(ev.B)
		s.acts = s.state[ev.A].eff.Decided(ev.N, v.d, v.cache, s.epoch, s.acts[:0])
		for _, a := range s.acts {
			s.do(ev.A, a)
		}
	case evStageDone:
		s.stageDone(ev.A, ev.B)
	case evStageStart:
		s.startStage(ev.A, ev.B)
	case evIdleReport:
		s.ctrl.IdleResetKeys(s.irReports[ev.A])
		s.freeReport(ev.A)
	case evReconfigQuiesce:
		s.beginQuiesce(ev.A)
	case evReconfigSwap:
		s.swapConfig(ev.A)
	default:
		panic(fmt.Sprintf("core: unknown sim event kind %d", ev.Kind))
	}
}

// arrive processes one job arrival at the task's home (first-stage)
// processor and schedules the next arrival.
func (s *SimSystem) arrive(ti int32) {
	if s.removed[ti] {
		// The task left the system after this arrival event was scheduled;
		// its arrival process ends here.
		return
	}
	t := s.tasks[ti]
	now := s.eng.Now()
	if now > s.cfg.Horizon {
		return
	}
	next := now + t.Period
	if t.Kind == sched.Aperiodic {
		next = now + s.exp(t.MeanInterarrival)
	}
	if next <= s.cfg.Horizon {
		s.eng.AtEvent(next, s, des.Event{Kind: evArrive, A: ti})
	}
	s.admit(ti, now)
}

// admit numbers the next job of task ti, arrived at now, accounts it and
// routes it.
func (s *SimSystem) admit(ti int32, now time.Duration) (Action, bool) {
	t, st := s.tasks[ti], s.task(ti)
	job := st.nextJob
	st.nextJob++
	st.acc.Arrived()
	s.record(TraceArrived, sched.JobRef{Task: t.ID, Job: job}, -1, t.Subtasks[0].Processor)
	return s.routeArrival(ti, job, now)
}

// routeArrival hands one arrived job to its task effector: while admission
// is quiesced the arrival defers (deferred reports it); otherwise the
// effector's action is carried out and returned, so Submit can report the
// arrival's immediate resolution. Deferred arrivals replay through this same
// path — with their original arrival times — once the reconfiguration swap
// installs the new configuration.
func (s *SimSystem) routeArrival(ti int32, job int64, arrival time.Duration) (a Action, deferred bool) {
	if s.quiescing {
		s.deferred = append(s.deferred, deferredArrival{task: ti, job: job, arrival: arrival})
		return Action{Kind: ActHold, Job: job, Arrival: arrival}, true
	}
	a = s.state[ti].eff.Arrive(job, arrival)
	s.do(ti, a)
	return a, false
}

// do carries out one effector action for task ti: a request is the TE
// pushing a "Task Arrive" event to the AC, whose decision and "Accept" event
// back are chained typed events.
func (s *SimSystem) do(ti int32, a Action) {
	switch a.Kind {
	case ActRequest:
		s.links.SendEvent(s, des.Event{Kind: evManagerArrive, A: ti, N: a.Job, D: a.Arrival})
	case ActRelease:
		s.release(ti, a.Job, a.Placement, a.Arrival)
	case ActSkip:
		s.skipJob(ti, a.Job)
	}
}

// decide runs the manager-side decide step and pushes the "Accept" (or
// reject) event back to the releasing task effector.
func (s *SimSystem) decide(ti int32, job int64, arrival time.Duration) {
	var v verdict
	// A task withdrawn while this round trip was in flight gets a rejection
	// through the normal path, so the arrival is accounted exactly once.
	if !s.removed[ti] {
		var expireAt time.Duration
		v.d, v.cache, expireAt = s.ctrl.Decide(sched.JobKey{Task: sched.TaskRef(ti), Job: job}, s.tasks[ti], arrival, s.eng.Now())
		if expireAt > 0 {
			// One expiry event per accepted job: with the indexed ledger the
			// event is an O(1) lookup (a no-op when idle resetting already
			// drained the job), so the drain tail stays cheap even at large
			// in-flight job counts.
			s.eng.AtEvent(expireAt, s, des.Event{Kind: evExpire, A: ti, N: job})
		}
	}
	// The decision waits in the pool while the event crosses the link.
	di := s.allocDec(v)
	s.links.SendEvent(s, des.Event{Kind: evDeliver, A: ti, B: di, N: job})
}

// skipJob accounts one not-released job and notifies watchers.
func (s *SimSystem) skipJob(ti int32, job int64) {
	s.state[ti].acc.Skipped()
	s.record(TraceSkipped, sched.JobRef{Task: s.tasks[ti].ID, Job: job}, -1, -1)
	s.emit(WatchRejected, ti, job, nil, 0)
}

// emit publishes a watch event for job job of task ti (-1 for none),
// stamped with the virtual time, configuration and epoch, when a stream is
// open.
func (s *SimSystem) emit(kind WatchKind, ti int32, job int64, placement []sched.PlacedStage, resp time.Duration) {
	if !s.hub.Active() {
		return
	}
	ev := WatchEvent{Kind: kind, Job: job, At: s.eng.Now(), Placement: placement, Response: resp, Config: s.cfg.Strategies, Epoch: s.epoch}
	if ti >= 0 {
		ev.Task = s.tasks[ti].ID
	}
	s.hub.Emit(ev)
}

// release starts the job's first subjob on its assigned processor.
func (s *SimSystem) release(ti int32, job int64, placement []sched.PlacedStage, arrival time.Duration) {
	s.state[ti].acc.Released()
	s.inFlight++
	s.record(TraceReleased, sched.JobRef{Task: s.tasks[ti].ID, Job: job}, -1, placement[0].Proc)
	s.emit(WatchAdmitted, ti, job, placement, 0)
	ji := s.allocJob(ti, job, arrival, placement)
	s.startStage(ji, 0)
}

// startStage submits the i-th subjob; completion and cross-processor trigger
// events chain through stageDone. Trigger events between stages on different
// processors traverse the federated event channel (one link delay); stages
// co-located on the same processor are dispatched through the local channel
// at no delay.
func (s *SimSystem) startStage(ji, stage int32) {
	j := &s.jobs[ji]
	t := s.tasks[j.task]
	proc := j.placement[stage].Proc
	s.procs[proc].SubmitEvent(t.Priority, t.Subtasks[stage].Exec, s, des.Event{Kind: evStageDone, A: ji, B: stage})
}

// stageDone handles one subjob completion: IR bookkeeping, then either the
// next stage or job completion.
func (s *SimSystem) stageDone(ji, stage int32) {
	j := &s.jobs[ji]
	ti := j.task
	t := s.tasks[ti]
	now := s.eng.Now()
	proc := j.placement[stage].Proc
	ref := sched.JobRef{Task: t.ID, Job: j.job}
	s.irs[proc].Complete(sched.JobKey{Task: sched.TaskRef(ti), Job: j.job}, int(stage), t.Kind, j.arrival+t.Deadline)
	s.record(TraceStageDone, ref, int(stage), proc)
	if int(stage) == len(j.placement)-1 {
		resp := now - j.arrival
		s.state[ti].acc.Completed(resp)
		s.inFlight--
		s.record(TraceCompleted, ref, -1, proc)
		s.emit(WatchCompleted, ti, j.job, nil, resp)
		if resp > t.Deadline {
			s.emit(WatchDeadlineMiss, ti, j.job, nil, resp)
		}
		s.freeJob(ji)
		return
	}
	if j.placement[stage+1].Proc == proc {
		s.startStage(ji, stage+1)
		return
	}
	s.links.SendEvent(s, des.Event{Kind: evStageStart, A: ji, B: stage + 1})
}

// reportIdle pushes the processor's idle-resetting report to the AC.
func (s *SimSystem) reportIdle(proc int) {
	ri := s.allocReport()
	out := s.irs[proc].ReportInto(s.eng.Now(), s.irReports[ri][:0])
	s.irReports[ri] = out
	if len(out) == 0 {
		s.freeReport(ri)
		return
	}
	s.links.SendEvent(s, des.Event{Kind: evIdleReport, A: ri})
}

// allocJob takes a released-job slot and copies the placement into its
// reusable buffer.
func (s *SimSystem) allocJob(ti int32, job int64, arrival time.Duration, placement []sched.PlacedStage) int32 {
	var ji int32
	if n := len(s.freeJobs); n > 0 {
		ji = s.freeJobs[n-1]
		s.freeJobs = s.freeJobs[:n-1]
	} else {
		s.jobs = append(s.jobs, relJob{})
		ji = int32(len(s.jobs) - 1)
	}
	j := &s.jobs[ji]
	j.task = ti
	j.job = job
	j.arrival = arrival
	j.placement = append(j.placement[:0], placement...)
	return ji
}

func (s *SimSystem) freeJob(ji int32) {
	s.freeJobs = append(s.freeJobs, ji)
}

// allocDec parks a verdict while its "Accept" event crosses the link.
func (s *SimSystem) allocDec(v verdict) int32 {
	if n := len(s.freeDecs); n > 0 {
		di := s.freeDecs[n-1]
		s.freeDecs = s.freeDecs[:n-1]
		s.decs[di] = v
		return di
	}
	s.decs = append(s.decs, v)
	return int32(len(s.decs) - 1)
}

func (s *SimSystem) freeDec(di int32) {
	s.decs[di] = verdict{}
	s.freeDecs = append(s.freeDecs, di)
}

// allocReport takes a reusable idle-report buffer slot.
func (s *SimSystem) allocReport() int32 {
	if n := len(s.freeReps); n > 0 {
		ri := s.freeReps[n-1]
		s.freeReps = s.freeReps[:n-1]
		return ri
	}
	s.irReports = append(s.irReports, nil)
	return int32(len(s.irReports) - 1)
}

func (s *SimSystem) freeReport(ri int32) {
	s.irReports[ri] = s.irReports[ri][:0]
	s.freeReps = append(s.freeReps, ri)
}
