package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccm"
	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

// teTask is the effector's per-task record: the task's ref, its (swappable)
// definition, the job-number allocator, and the task's state machine. The
// record survives reconfigurations as long as its ref stays in the workload,
// so job numbering never restarts across a swap; a task re-added under its
// old ID has a new ref and a new record. Every field but ref is under the
// effector's mu.
type teTask struct {
	ref     sched.TaskRef
	task    *sched.Task
	nextJob int64
	// gone marks a task that left the workload while jobs still awaited a
	// decision: it takes no arrivals, and is dropped once they settle.
	gone bool
	eff  core.Effector
}

// teRoute is what carrying out a task's actions needs, read under mu with
// the actions themselves: the channel, this processor, and the task's
// record and home processor.
type teRoute struct {
	ch         *eventchan.Channel
	tt         *teTask
	proc, home int
}

// TaskEffector is the live TE component (paper Section 5): it holds arriving
// tasks in a waiting queue, pushes "Task Arrive" events to the admission
// controller, and releases jobs when the corresponding "Accept" event
// arrives. Each task's jobs go through a core.Effector, the state machine
// the simulation drives too; this component carries out its actions as
// pushes.
//
// One instance runs on each application processor. Accept events fan out to
// every effector; the effector on the task's home (arrival) processor owns
// the decision and publishes the Release event, which the federation routes
// to the node hosting the assigned first stage — when the first stage was
// re-allocated, that is the duplicate's node (the paper's operation 6).
//
// Concurrency: every arrival and decision drives its task's state machine
// under mu, which guards the index and every record, and the effector
// carries out the actions after releasing it: no push, ORB call or handler
// runs under mu. onAccept takes closing before mu, and nothing takes them
// the other way. The stats are atomic. A cached submission racing a
// reconfiguration may settle under the decision cached just before the swap;
// that matches the decision-event semantics (a stale Accept still settles
// its own job, it just is not re-cached as policy).
type TaskEffector struct {
	mu   sync.Mutex
	proc int
	// cfg holds the AC and LB strategies (the TE's "Per-task" attribute);
	// epoch is the reconfiguration epoch the state machines are in.
	cfg   core.Config
	epoch int64
	// byRef holds every record, and byName the current tasks' records for
	// SubmitJob, the one call that arrives by name.
	byRef  map[sched.TaskRef]*teTask
	byName map[string]*teTask
	// maxDeadline bounds how long a request can still get a decision, and
	// sweepAt is when SubmitJob next looks for requests older than that:
	// one whose Task Arrive was lost in another sender's ORB flush (the
	// failure surfaces on that flusher, not on the senders it carried)
	// would otherwise hold its jobs forever.
	maxDeadline time.Duration
	sweepAt     int64
	ch          *eventchan.Channel
	active      bool
	// closing orders Passivate after the releases in flight: the two paths
	// that release (a cached SubmitJob, onAccept) hold it shared, so a
	// decision that found the effector open has published its Release —
	// local delivery and, the ORB flushing on the sender, the socket write —
	// before Passivate returns and the node's channel and transport are torn
	// down. Without it a dying node counted and locally delivered a
	// relocated Release that its closed ORB then refused.
	closing sync.RWMutex
	closed  atomic.Bool

	// Stats counts the effector's view of the workload. Fields are updated
	// atomically; use StatsSnapshot for a consistent copy.
	Stats TEStats
	// HoldPush measures the paper's operation 1 (hold task + push event).
	// The push includes the TaskArrive's socket write when the connection to
	// the manager was idle (the ORB's sender-side flush); the hop the paper
	// counts as operation 2 is shorter by the hand-off that write replaced.
	HoldPush core.OpStats
}

// TEStats aggregates effector-side counters.
type TEStats struct {
	// Arrived counts jobs arriving on this processor.
	Arrived int64
	// Released counts jobs this effector released.
	Released int64
	// Skipped counts jobs this effector settled as not released.
	Skipped int64
	// Relocated counts released jobs whose first stage moved to a replica.
	Relocated int64
}

var _ ccm.Component = (*TaskEffector)(nil)

// NewTaskEffector returns an unconfigured TE component.
func NewTaskEffector() *TaskEffector { return &TaskEffector{} }

// Configure parses the processor ID, the AC and LB strategies, the workload
// and the epoch: a plan folded through reconfigurations records the epoch
// its effectors run, so an effector installed from it (a recovered node)
// enters the epoch the admission controller stamps its decisions with.
func (te *TaskEffector) Configure(attrs map[string]string) error {
	te.mu.Lock()
	if te.active {
		te.mu.Unlock()
		return fmt.Errorf("%w: TE is activated; use Reconfigure", ErrAlreadyActive)
	}
	te.mu.Unlock()
	proc, err := attrInt(attrs, AttrProcessor)
	if err != nil {
		return err
	}
	cfg, err := parseStrategies(attrs, core.Config{})
	if err != nil {
		return err
	}
	if cfg.AC == 0 || cfg.LB == 0 {
		return fmt.Errorf("%w: TE needs %s and %s", ErrInvalidStrategy, AttrACStrategy, AttrLBStrategy)
	}
	tasks, err := ParseWorkload(attrs, true)
	if err != nil {
		return err
	}
	epoch, err := attrEpoch(attrs, 0)
	if err != nil {
		return err
	}
	// Configuration and activation arrive over the ORB in dispatch
	// goroutines; publish the fields under the lock.
	te.mu.Lock()
	defer te.mu.Unlock()
	te.proc, te.cfg, te.epoch = proc, cfg, epoch
	te.installLocked(tasks)
	return nil
}

// installLocked installs a task set (nil keeps the current one): surviving
// tasks keep their record, and with it their job numbering and waiting
// jobs; new tasks start at job zero; a departed task's record stays, marked
// gone, while jobs still await its decision. Every record then enters
// te.epoch under te.cfg. Caller holds te.mu.
func (te *TaskEffector) installLocked(tasks map[sched.TaskRef]*sched.Task) {
	if tasks != nil {
		old := te.byRef
		te.byRef = make(map[sched.TaskRef]*teTask, len(tasks))
		te.byName = make(map[string]*teTask, len(tasks))
		te.maxDeadline = 0
		for ref, t := range tasks {
			tt, ok := old[ref]
			if !ok {
				tt = &teTask{ref: ref}
			}
			tt.task, tt.gone = t, false
			te.byRef[ref], te.byName[t.ID] = tt, tt
			te.maxDeadline = max(te.maxDeadline, t.Deadline)
		}
		for ref, tt := range old {
			if _, ok := te.byRef[ref]; !ok && tt.eff.Waiting() > 0 {
				tt.gone = true
				te.byRef[ref] = tt
			}
		}
	}
	for _, tt := range te.byRef {
		tt.eff.Epoch(te.epoch, te.cfg, tt.task.Kind)
	}
}

// routeLocked returns tt's route. Caller holds mu.
func (te *TaskEffector) routeLocked(tt *teTask) teRoute {
	return teRoute{ch: te.ch, tt: tt, proc: te.proc, home: tt.task.Subtasks[0].Processor}
}

// Activate subscribes to Accept events.
func (te *TaskEffector) Activate(ctx *ccm.Context) error {
	te.mu.Lock()
	te.ch = ctx.Events
	te.active = true
	te.mu.Unlock()
	// Subscribe outside the lock: the effector makes no channel call under
	// mu, and the channel runs no handler under its own lock.
	ctx.Events.Subscribe(EvAccept, te.onAccept)
	return nil
}

// Reconfigure is the effector's hot-swap stage: it adopts the
// coordinator's epoch and any new AC and LB strategies, and every task's
// state machine enters the epoch, dropping its cached decision (it was
// decided under the previous strategy combination or task set), so an
// in-flight Accept from the old epoch settles its own job without being
// re-cached. Jobs waiting for a decision stay waiting; the admission
// controller replays their buffered arrivals under the new configuration,
// and refuses those of a task the swap removed. A Workload attribute swaps
// the task set in place (the open-world AddTasks/RemoveTasks delta).
func (te *TaskEffector) Reconfigure(attrs map[string]string) error {
	newTasks, err := ParseWorkload(attrs, false)
	if err != nil {
		return err
	}
	te.mu.Lock()
	defer te.mu.Unlock()
	if te.byRef == nil {
		return fmt.Errorf("%w: TE reconfigured before configuration", ErrNotConfigured)
	}
	cfg, err := parseStrategies(attrs, te.cfg)
	if err != nil {
		return err
	}
	epoch, err := attrEpoch(attrs, te.epoch+1)
	if err != nil {
		return err
	}
	te.cfg, te.epoch = cfg, epoch
	te.installLocked(newTasks)
	return nil
}

// Passivate stops accepting arrivals.
func (te *TaskEffector) Passivate() error {
	te.closing.Lock()
	te.closed.Store(true)
	te.closing.Unlock()
	return nil
}

// Proc returns the effector's processor ID.
func (te *TaskEffector) Proc() int {
	te.mu.Lock()
	defer te.mu.Unlock()
	return te.proc
}

// StatsSnapshot returns a copy of the counters.
func (te *TaskEffector) StatsSnapshot() TEStats {
	return TEStats{
		Arrived:   atomic.LoadInt64(&te.Stats.Arrived),
		Released:  atomic.LoadInt64(&te.Stats.Released),
		Skipped:   atomic.LoadInt64(&te.Stats.Skipped),
		Relocated: atomic.LoadInt64(&te.Stats.Relocated),
	}
}

// errPassivated is SubmitJob's refusal once the effector is closed.
func errPassivated() error {
	return fmt.Errorf("live: task effector passivated: %w", core.ErrStopped)
}

// SubmitJob is the application-facing entry point: one job of the named
// task arrives at this processor (the task's home processor). It returns
// the job's typed Admission: cached
// per-task decisions resolve synchronously (Accepted or Rejected) on the
// fast path; every other arrival is Pending, held behind its task's
// outstanding request or pushing a "Task Arrive" event of its own — the
// terminal outcome travels back as an Accept event and surfaces on the
// binding's watch stream. An arrival whose push fails is skipped, and
// SubmitJob returns the error.
func (te *TaskEffector) SubmitJob(taskID string) (core.Admission, error) {
	start := time.Now()
	adm := core.Admission{Task: taskID, Job: -1}
	if te.closed.Load() {
		return adm, errPassivated()
	}
	te.mu.Lock()
	tt := te.byName[taskID]
	if tt == nil || tt.gone {
		te.mu.Unlock()
		return adm, fmt.Errorf("live: te: %w: %q", core.ErrUnknownTask, taskID)
	}
	arrival := nowNanos()
	a := tt.eff.Arrive(tt.nextJob, time.Duration(arrival))
	tt.nextJob++
	r := te.routeLocked(tt)
	cached := a.Kind == core.ActRelease || a.Kind == core.ActSkip
	maxDL := te.maxDeadline
	sweep := !cached && maxDL > 0 && arrival >= te.sweepAt
	if sweep {
		te.sweepAt = arrival + int64(maxDL)
	}
	te.mu.Unlock()

	if cached {
		// Settled from the task's cached decision, with no round trip;
		// Passivate waits for the release.
		te.closing.RLock()
		defer te.closing.RUnlock()
		if te.closed.Load() {
			return adm, errPassivated()
		}
	}
	atomic.AddInt64(&te.Stats.Arrived, 1)
	adm = a.Admission(taskID)
	err := te.do(r, a, -1)
	if cached {
		return adm, nil
	}
	if err != nil {
		adm.Outcome = core.AdmissionRejected
		adm.Reason = "arrival not delivered: " + err.Error()
	}
	te.HoldPush.Add(time.Since(start))
	if sweep {
		te.sweep(time.Duration(arrival) - maxDL)
	}
	return adm, err
}

// sweep declares lost every request for a job that arrived before horizon,
// and skips the jobs waiting on it. SubmitJob runs it at most once per
// longest task deadline.
func (te *TaskEffector) sweep(horizon time.Duration) {
	var (
		acts   []core.Action
		routes []teRoute
	)
	te.mu.Lock()
	for _, tt := range te.byRef {
		acts = tt.eff.Expire(horizon, acts)
		for len(routes) < len(acts) {
			routes = append(routes, te.routeLocked(tt))
		}
	}
	te.mu.Unlock()
	for i, a := range acts {
		_ = te.do(routes[i], a, -1)
	}
}

// onAccept handles a decision event. Only the task's home effector acts: its
// task's state machine settles the jobs the decision answers, and each
// release is published as a Release event, which the federation routes to
// the node hosting the assigned first stage. The admission controller
// addresses an Accept to the arrival processor, but a gateway that does not
// know which processor a sink is still broadcasts, so an effector may see
// any Accept; one that is not home answers from the payload's header,
// without decoding the placement.
func (te *TaskEffector) onAccept(ev eventchan.Event) {
	ref, ok := acceptTask(ev.Payload)
	if !ok {
		return
	}
	te.closing.RLock()
	defer te.closing.RUnlock()
	if te.closed.Load() {
		return
	}
	te.mu.Lock()
	tt := te.byRef[ref]
	if tt == nil || tt.task.Subtasks[0].Processor != te.proc {
		te.mu.Unlock()
		return
	}
	dec, err := DecodeAccept(ev.Payload)
	if err != nil {
		te.mu.Unlock()
		return
	}
	acts := tt.eff.Decided(dec.Job, core.Decision{Accept: dec.Ok, Placement: dec.Placement}, dec.PerTaskDecision, dec.Epoch, nil)
	r := te.routeLocked(tt)
	te.mu.Unlock()
	for _, a := range acts {
		_ = te.do(r, a, dec.Job)
	}
}

// do carries out one state-machine action for job a.Job of the task r
// routes, after mu is released. answered is the job the Accept being applied
// names (-1 for none): the manager's watch tap reports that job's rejection,
// so only the other skips are announced, as local EvSkip events. A request
// whose push fails is lost: the jobs waiting on it are skipped, and the
// error is returned.
func (te *TaskEffector) do(r teRoute, a core.Action, answered int64) error {
	switch a.Kind {
	case core.ActRequest:
		err := r.ch.Push(eventchan.Event{Type: EvTaskArrive, Payload: AppendTaskArrive(nil, &TaskArrive{
			Task:         r.tt.ref,
			Job:          a.Job,
			Proc:         r.proc,
			ArrivalNanos: int64(a.Arrival),
		})})
		if err != nil {
			te.mu.Lock()
			lost := r.tt.eff.Lost(a.Job, nil)
			te.mu.Unlock()
			for _, s := range lost {
				_ = te.do(r, s, -1)
			}
		}
		return err
	case core.ActRelease:
		atomic.AddInt64(&te.Stats.Released, 1)
		if a.Placement[0].Proc != r.home {
			atomic.AddInt64(&te.Stats.Relocated, 1)
		}
		// The channel delivers the Release locally and forwards it to the
		// node of the first stage, where the subtask component picks it up.
		_ = r.ch.PushTo(stageProc(a.Placement, 0), eventchan.Event{Type: EvRelease, Payload: AppendTrigger(nil, &Trigger{
			Task: r.tt.ref, Job: a.Job, Placement: a.Placement, ArrivalNanos: int64(a.Arrival),
		})})
	case core.ActSkip:
		atomic.AddInt64(&te.Stats.Skipped, 1)
		if a.Job != answered {
			_ = r.ch.Push(eventchan.Event{Type: EvSkip, Payload: AppendAccept(nil, &Accept{
				Task: r.tt.ref, Job: a.Job, ArrivalNanos: int64(a.Arrival),
			})})
		}
	}
	return nil
}
