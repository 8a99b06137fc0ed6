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
// definition, the job-number allocator, and the task's state machine with,
// behind an atomic pointer, the action its cached decision settles arrivals
// with. The record survives reconfigurations as long as its ref stays in the
// workload, so job numbering never restarts or races across a swap; a task
// re-added under its old ID has a new ref and a new record.
type teTask struct {
	ref     sched.TaskRef
	task    atomic.Pointer[sched.Task]
	nextJob atomic.Int64
	cached  atomic.Pointer[core.Action]
	// gone marks a task that left the workload while jobs still awaited a
	// decision: it takes no arrivals, and is dropped once they settle.
	gone atomic.Bool

	mu  sync.Mutex
	eff core.Effector
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
// Concurrency: a cached decision settles an arrival lock-free — the task
// index is a copy-on-write map behind an atomic pointer, job numbers come
// from per-task atomic counters, and the stats are atomic. Other arrivals
// and decisions drive their task's state machine under its lock, and push
// after releasing it. A cached submission racing a reconfiguration may
// settle under the decision cached just before the swap; that matches the
// decision-event semantics (a stale Accept still settles its own job, it
// just is not re-cached as policy).
type TaskEffector struct {
	mu   sync.Mutex
	proc int
	// cfg holds the AC and LB strategies (the TE's "Per-task" attribute);
	// epoch is the reconfiguration epoch the state machines are in.
	cfg   core.Config
	epoch int64
	// tasks is the COW task index. Writers replace it under te.mu; readers
	// only Load.
	tasks atomic.Pointer[teIndex]
	// maxDeadline bounds how long a request can still get a decision, and
	// sweepAt is when SubmitJob next looks for requests older than that:
	// one whose Task Arrive was lost in another sender's ORB flush (the
	// failure surfaces on that flusher, not on the senders it carried)
	// would otherwise hold its jobs forever.
	maxDeadline atomic.Int64
	sweepAt     atomic.Int64
	ch          atomic.Pointer[eventchan.Channel]
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

// teIndex is the effector's task index: every record by ref, and the
// current tasks' records by ID for SubmitJob, the one call that arrives by
// name.
type teIndex struct {
	byRef  map[sched.TaskRef]*teTask
	byName map[string]*teTask
}

// NewTaskEffector returns an unconfigured TE component.
func NewTaskEffector() *TaskEffector { return &TaskEffector{} }

// Configure parses the processor ID, the AC and LB strategies and the
// workload.
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
	// Configuration and activation arrive over the ORB in dispatch
	// goroutines; publish the fields under the lock (the index itself is
	// an atomic pointer for the lock-free readers).
	te.mu.Lock()
	defer te.mu.Unlock()
	te.proc, te.cfg = proc, cfg
	te.installLocked(tasks)
	return nil
}

// installLocked installs a task set (nil keeps the current one): surviving
// tasks keep their record, and with it their job numbering and waiting
// jobs; new tasks start at job zero; a departed task's record stays, marked
// gone, while jobs still await its decision. Every record then enters
// te.epoch under te.cfg. Caller holds te.mu.
func (te *TaskEffector) installLocked(tasks map[sched.TaskRef]*sched.Task) {
	index := te.tasks.Load()
	if index == nil {
		index = &teIndex{}
	}
	if tasks != nil {
		old := index.byRef
		index = &teIndex{
			byRef:  make(map[sched.TaskRef]*teTask, len(tasks)),
			byName: make(map[string]*teTask, len(tasks)),
		}
		var maxDL time.Duration
		for ref, t := range tasks {
			tt, ok := old[ref]
			if !ok {
				tt = &teTask{ref: ref}
			}
			tt.task.Store(t)
			tt.gone.Store(false)
			index.byRef[ref], index.byName[t.ID] = tt, tt
			maxDL = max(maxDL, t.Deadline)
		}
		for ref, tt := range old {
			if _, ok := index.byRef[ref]; !ok && tt.waiting() > 0 {
				tt.gone.Store(true)
				index.byRef[ref] = tt
			}
		}
		te.maxDeadline.Store(int64(maxDL))
	}
	for _, tt := range index.byRef {
		tt.mu.Lock()
		tt.eff.Epoch(te.epoch, te.cfg, tt.task.Load().Kind)
		tt.cached.Store(nil)
		tt.mu.Unlock()
	}
	te.tasks.Store(index)
}

// waiting reports how many of the task's jobs await a decision.
func (tt *teTask) waiting() int {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.eff.Waiting()
}

// Activate subscribes to Accept events.
func (te *TaskEffector) Activate(ctx *ccm.Context) error {
	te.mu.Lock()
	te.ch.Store(ctx.Events)
	te.active = true
	te.mu.Unlock()
	// Subscribe outside the lock: delivery fan-out holds the channel's
	// shard lock while handlers take te.mu, so the reverse order here
	// could deadlock.
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
	if te.tasks.Load() == nil {
		return fmt.Errorf("%w: TE reconfigured before configuration", ErrNotConfigured)
	}
	cfg, err := parseStrategies(attrs, te.cfg)
	if err != nil {
		return err
	}
	epoch := te.epoch + 1
	if _, ok := attrs[AttrEpoch]; ok {
		if epoch, err = attrInt64(attrs, AttrEpoch); err != nil {
			return err
		}
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

// settleCached resolves one arrival with the task's cached action without
// taking a lock: job number from the task's atomic allocator, stats
// atomically, and the release (if accepted) pushed directly.
//
//rtmw:noalloc
func (te *TaskEffector) settleCached(taskID string, tt *teTask, a core.Action) core.Admission {
	a.Job, a.Arrival = tt.nextJob.Add(1)-1, time.Duration(nowNanos())
	atomic.AddInt64(&te.Stats.Arrived, 1)
	_ = te.do(tt, a, -1)
	return a.Admission(taskID)
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
	var tt *teTask
	if index := te.tasks.Load(); index != nil {
		tt = index.byName[taskID]
	}
	if tt == nil || tt.gone.Load() {
		return adm, fmt.Errorf("live: te: %w: %q", core.ErrUnknownTask, taskID)
	}

	// Per-task fast path: a cached decision releases or skips immediately,
	// never touching a lock but the passivation guard.
	if a := tt.cached.Load(); a != nil {
		te.closing.RLock()
		defer te.closing.RUnlock()
		if te.closed.Load() {
			return adm, errPassivated()
		}
		return te.settleCached(taskID, tt, *a), nil
	}

	job := tt.nextJob.Add(1) - 1
	atomic.AddInt64(&te.Stats.Arrived, 1)
	arrival := nowNanos()
	tt.mu.Lock()
	a := tt.eff.Arrive(job, time.Duration(arrival))
	tt.mu.Unlock()
	adm = a.Admission(taskID)
	err := te.do(tt, a, -1)
	if err != nil {
		adm.Outcome = core.AdmissionRejected
		adm.Reason = "arrival not delivered: " + err.Error()
	}
	te.HoldPush.Add(time.Since(start))
	te.sweep(arrival)
	return adm, err
}

// sweep runs at most once per longest task deadline: every request that has
// waited that long is declared lost, and the jobs waiting on it are skipped.
func (te *TaskEffector) sweep(now int64) {
	next := te.sweepAt.Load()
	maxDL := te.maxDeadline.Load()
	if now < next || maxDL <= 0 || !te.sweepAt.CompareAndSwap(next, now+maxDL) {
		return
	}
	for _, tt := range te.tasks.Load().byRef {
		tt.mu.Lock()
		acts := tt.eff.Expire(time.Duration(now-maxDL), nil)
		tt.mu.Unlock()
		for _, a := range acts {
			_ = te.do(tt, a, -1)
		}
	}
}

// onAccept handles a decision event. Only the task's home effector acts: its
// task's state machine settles the jobs the decision answers, and each
// release is published as a Release event, which the federation routes to
// the node hosting the assigned first stage.
func (te *TaskEffector) onAccept(ev eventchan.Event) {
	tt := te.homeOf(ev.Payload)
	if tt == nil {
		return
	}
	te.closing.RLock()
	defer te.closing.RUnlock()
	if te.closed.Load() {
		return
	}
	dec, err := DecodeAccept(ev.Payload)
	if err != nil {
		return
	}
	tt.mu.Lock()
	acts := tt.eff.Decided(dec.Job, core.Decision{Accept: dec.Ok, Placement: dec.Placement}, dec.PerTaskDecision, dec.Epoch, nil)
	if a, ok := tt.eff.Cached(); ok && tt.cached.Load() == nil {
		c := a
		tt.cached.Store(&c)
	}
	tt.mu.Unlock()
	for _, a := range acts {
		_ = te.do(tt, a, dec.Job)
	}
}

// do carries out one state-machine action for job a.Job of the task.
// answered is the job the Accept being applied names (-1 for none): the
// manager's watch tap reports that job's rejection, so only the other skips
// are announced, as local EvSkip events. A request whose push fails is lost:
// the jobs waiting on it are skipped, and the error is returned.
func (te *TaskEffector) do(tt *teTask, a core.Action, answered int64) error {
	ch := te.ch.Load()
	switch a.Kind {
	case core.ActRequest:
		te.mu.Lock()
		proc := te.proc
		te.mu.Unlock()
		err := ch.Push(eventchan.Event{Type: EvTaskArrive, Payload: AppendTaskArrive(nil, &TaskArrive{
			Task:         tt.ref,
			Job:          a.Job,
			Proc:         proc,
			ArrivalNanos: int64(a.Arrival),
		})})
		if err != nil {
			tt.mu.Lock()
			lost := tt.eff.Lost(a.Job, nil)
			tt.mu.Unlock()
			for _, s := range lost {
				_ = te.do(tt, s, -1)
			}
		}
		return err
	case core.ActRelease:
		atomic.AddInt64(&te.Stats.Released, 1)
		if a.Placement[0].Proc != tt.task.Load().Subtasks[0].Processor {
			atomic.AddInt64(&te.Stats.Relocated, 1)
		}
		// The channel delivers the Release locally and forwards it to the
		// node of the first stage, where the subtask component picks it up.
		_ = ch.PushTo(stageProc(a.Placement, 0), eventchan.Event{Type: EvRelease, Payload: AppendTrigger(nil, &Trigger{
			Task: tt.ref, Job: a.Job, Placement: a.Placement, ArrivalNanos: int64(a.Arrival),
		})})
	case core.ActSkip:
		atomic.AddInt64(&te.Stats.Skipped, 1)
		if a.Job != answered {
			_ = ch.Push(eventchan.Event{Type: EvSkip, Payload: AppendAccept(nil, &Accept{
				Task: tt.ref, Job: a.Job, ArrivalNanos: int64(a.Arrival),
			})})
		}
	}
	return nil
}

// homeOf returns the record of the task an Accept payload decides when its
// home (arrival) processor is this effector's, and nil otherwise. The
// admission controller addresses an Accept to the arrival processor, but a
// gateway that does not know which processor a sink is still broadcasts, so
// an effector may see any Accept; one that is not home answers from the
// payload's header, without decoding the placement.
func (te *TaskEffector) homeOf(payload []byte) *teTask {
	ref, ok := acceptTask(payload)
	index := te.tasks.Load()
	if !ok || index == nil {
		return nil
	}
	tt := index.byRef[ref]
	if tt == nil {
		return nil
	}
	home := tt.task.Load().Subtasks[0].Processor
	te.mu.Lock()
	defer te.mu.Unlock()
	if home != te.proc {
		return nil
	}
	return tt
}
