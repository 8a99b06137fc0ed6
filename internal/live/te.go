package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccm"
	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/sched"
	"repro/internal/spec"
)

// teTask is the effector's per-task record: the (swappable) task definition
// and the job-number allocator. The record survives reconfigurations as long
// as its task ID stays in the workload, so job numbering never restarts or
// races across a swap.
type teTask struct {
	task    atomic.Pointer[sched.Task]
	nextJob atomic.Int64
}

// TaskEffector is the live TE component (paper Section 5): it holds arriving
// tasks in a waiting queue, pushes "Task Arrive" events to the admission
// controller, and releases jobs when the corresponding "Accept" event
// arrives. Its Per-task behavior caches per-task admission decisions so
// subsequent jobs of an admitted periodic task release immediately without
// another round trip.
//
// One instance runs on each application processor. Accept events fan out to
// every effector; the effector on the task's home (arrival) processor owns
// the decision and publishes the Release event, which the federation routes
// to the node hosting the assigned first stage — when the first stage was
// re-allocated, that is the duplicate's node (the paper's operation 6).
//
// Concurrency: the cached per-task fast path is lock-free — the task index
// and the decision cache are copy-on-write maps behind atomic pointers, job
// numbers come from per-task atomic counters, and the stats are atomic — so
// a flood of cached releases never contends with first-admission arrivals
// holding te.mu for the waiting queue. A cached submission racing a
// reconfiguration may settle under the decision cached just before the swap;
// that matches the decision-event semantics (a stale Accept still settles
// its own job, it just is not re-cached as policy).
type TaskEffector struct {
	mu   sync.Mutex
	proc int
	// tasks is the COW task index (task ID -> record); decided is the COW
	// per-task decision cache (Accept.PerTaskDecision). Writers clone under
	// te.mu; readers only Load.
	tasks   atomic.Pointer[map[string]*teTask]
	decided atomic.Pointer[map[string]*Accept]
	// waiting holds arrivals awaiting a decision, by arrival time
	// (UnixNano). Holds whose TaskArrive was lost in a batched gateway
	// flush (the failure surfaces on the flusher, not on piggybacked
	// pushers) would otherwise leak: sweepWaiting purges holds past every
	// possible deadline.
	waiting map[sched.JobRef]int64
	// maxDeadline bounds how long any hold can still get a decision.
	maxDeadline time.Duration
	// sweepAt is the waiting size that triggers the next amortized sweep.
	sweepAt int
	// epoch is the reconfiguration epoch this effector trusts: Accept
	// events stamped with an older epoch release their job but are not
	// cached as per-task decisions.
	epoch  int64
	ch     atomic.Pointer[eventchan.Channel]
	active bool
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
	// Skipped counts jobs rejected by the admission controller.
	Skipped int64
	// Relocated counts released jobs whose first stage moved to a replica.
	Relocated int64
	// Overloaded counts arrivals whose TaskArrive push was refused by
	// transport backpressure (the event plane shed the load explicitly).
	Overloaded int64
}

var _ ccm.Component = (*TaskEffector)(nil)

// NewTaskEffector returns an unconfigured TE component.
func NewTaskEffector() *TaskEffector {
	te := &TaskEffector{
		waiting: make(map[sched.JobRef]int64),
		sweepAt: minWaitingSweep,
	}
	empty := make(map[string]*Accept)
	te.decided.Store(&empty)
	return te
}

// lookupTask resolves a task record from the COW index without locking.
//
//rtmw:noalloc
func (te *TaskEffector) lookupTask(taskID string) (*teTask, bool) {
	tp := te.tasks.Load()
	if tp == nil {
		return nil, false
	}
	tt, ok := (*tp)[taskID]
	return tt, ok
}

// cachedDecision returns the per-task cached decision, lock-free.
//
//rtmw:noalloc
func (te *TaskEffector) cachedDecision(taskID string) (*Accept, bool) {
	dec, ok := (*te.decided.Load())[taskID]
	return dec, ok
}

// storeDecision publishes a cached decision copy-on-write. Caller holds
// te.mu (writers serialize; readers stay lock-free).
func (te *TaskEffector) storeDecision(taskID string, dec *Accept) {
	old := *te.decided.Load()
	next := make(map[string]*Accept, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[taskID] = dec
	te.decided.Store(&next)
}

// clearDecisions drops the whole decision cache. Caller holds te.mu.
func (te *TaskEffector) clearDecisions() {
	empty := make(map[string]*Accept)
	te.decided.Store(&empty)
}

// Configure parses the processor ID and workload.
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
	wl, err := attrString(attrs, AttrWorkload)
	if err != nil {
		return err
	}
	w, err := spec.Parse([]byte(wl))
	if err != nil {
		return err
	}
	tasks, err := w.SchedTasks()
	if err != nil {
		return err
	}
	index := make(map[string]*teTask, len(tasks))
	var maxDL time.Duration
	for _, t := range tasks {
		tt := &teTask{}
		tt.task.Store(t)
		index[t.ID] = tt
		if t.Deadline > maxDL {
			maxDL = t.Deadline
		}
	}
	// Configuration and activation arrive over the ORB in dispatch
	// goroutines; publish the fields under the lock (the index itself is
	// an atomic pointer for the lock-free readers).
	te.mu.Lock()
	te.proc = proc
	te.tasks.Store(&index)
	te.maxDeadline = maxDL
	te.mu.Unlock()
	return nil
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

// Reconfigure is the effector's hot-swap stage: it drops the cached
// per-task decisions (they were decided under the previous strategy
// combination or task set) and adopts the coordinator's epoch so in-flight
// Accept events from the old epoch release their jobs without being
// re-cached. Jobs holding in the waiting queue stay held; the admission
// controller replays their buffered arrivals under the new configuration.
//
// A Workload attribute swaps the effector's task set in place (the
// open-world AddTasks/RemoveTasks delta): new tasks start their job
// numbering at zero, tasks surviving the swap keep their job-number
// allocator (their record is carried over, so numbering never restarts),
// and holds, decisions and numbering of tasks no longer in the workload are
// dropped — their in-flight jobs keep executing on the subtask components,
// which drain independently.
func (te *TaskEffector) Reconfigure(attrs map[string]string) error {
	var newTasks []*sched.Task
	haveWorkload := false
	if wl, ok := attrs[AttrWorkload]; ok && wl != "" {
		w, err := spec.Parse([]byte(wl))
		if err != nil {
			return err
		}
		tasks, err := w.SchedTasks()
		if err != nil {
			return err
		}
		newTasks = tasks
		haveWorkload = true
	}
	te.mu.Lock()
	defer te.mu.Unlock()
	if te.tasks.Load() == nil {
		return fmt.Errorf("%w: TE reconfigured before configuration", ErrNotConfigured)
	}
	if _, ok := attrs[AttrEpoch]; ok {
		epoch, err := attrInt64(attrs, AttrEpoch)
		if err != nil {
			return err
		}
		te.epoch = epoch
	} else {
		te.epoch++
	}
	if haveWorkload {
		old := *te.tasks.Load()
		index := make(map[string]*teTask, len(newTasks))
		var maxDL time.Duration
		for _, t := range newTasks {
			tt, ok := old[t.ID]
			if !ok {
				tt = &teTask{}
			}
			tt.task.Store(t)
			index[t.ID] = tt
			if t.Deadline > maxDL {
				maxDL = t.Deadline
			}
		}
		for ref := range te.waiting {
			if _, ok := index[ref.Task]; !ok {
				delete(te.waiting, ref)
			}
		}
		te.tasks.Store(&index)
		te.maxDeadline = maxDL
	}
	te.clearDecisions()
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
		Arrived:    atomic.LoadInt64(&te.Stats.Arrived),
		Released:   atomic.LoadInt64(&te.Stats.Released),
		Skipped:    atomic.LoadInt64(&te.Stats.Skipped),
		Relocated:  atomic.LoadInt64(&te.Stats.Relocated),
		Overloaded: atomic.LoadInt64(&te.Stats.Overloaded),
	}
}

// Arrive is the application-facing entry point: one job of the named task
// arrives at this processor (the task's home processor). It returns the
// assigned job number. SubmitJob is the typed-outcome form.
func (te *TaskEffector) Arrive(taskID string) (int64, error) {
	adm, err := te.SubmitJob(taskID)
	return adm.Job, err
}

// settleCached resolves one arrival against a cached per-task decision
// without taking te.mu: job number from the task's atomic allocator, stats
// atomically, and the release (if accepted) pushed directly.
//
//rtmw:noalloc
func (te *TaskEffector) settleCached(taskID string, tt *teTask, dec *Accept) core.Admission {
	job := tt.nextJob.Add(1) - 1
	atomic.AddInt64(&te.Stats.Arrived, 1)
	adm := core.Admission{Task: taskID, Job: job}
	if dec.Ok {
		atomic.AddInt64(&te.Stats.Released, 1)
		if dec.Relocated {
			atomic.AddInt64(&te.Stats.Relocated, 1)
		}
		adm.Outcome = core.AdmissionAccepted
		adm.Placement = dec.Placement
		te.release(te.ch.Load(), taskID, job, dec.Placement, nowNanos())
	} else {
		atomic.AddInt64(&te.Stats.Skipped, 1)
		adm.Outcome = core.AdmissionRejected
		adm.Reason = "per-task admission decision cached as rejected"
	}
	return adm
}

// errPassivated is SubmitJob's refusal once the effector is closed.
func errPassivated() error {
	return fmt.Errorf("live: task effector passivated: %w", core.ErrStopped)
}

// SubmitJob injects one job arrival and returns its typed Admission: cached
// per-task decisions resolve synchronously (Accepted or Rejected) on the
// fast path, every other arrival pushes a "Task Arrive" event and
// returns Pending — the terminal outcome travels back as an Accept event and
// surfaces on the binding's watch stream.
func (te *TaskEffector) SubmitJob(taskID string) (core.Admission, error) {
	start := time.Now()
	adm := core.Admission{Task: taskID, Job: -1}
	if te.closed.Load() {
		return adm, errPassivated()
	}
	tt, ok := te.lookupTask(taskID)
	if !ok {
		return adm, fmt.Errorf("live: te: %w: %q", core.ErrUnknownTask, taskID)
	}

	// Per-task fast path: a cached decision releases or skips immediately,
	// never touching te.mu.
	if dec, ok := te.cachedDecision(taskID); ok {
		te.closing.RLock()
		defer te.closing.RUnlock()
		if te.closed.Load() {
			return adm, errPassivated()
		}
		return te.settleCached(taskID, tt, dec), nil
	}

	te.mu.Lock()
	job := tt.nextJob.Add(1) - 1
	atomic.AddInt64(&te.Stats.Arrived, 1)
	arrival := nowNanos()
	adm.Job = job
	ref := sched.JobRef{Task: taskID, Job: job}
	te.waiting[ref] = arrival
	te.sweepWaitingLocked(arrival)
	proc := te.proc
	te.mu.Unlock()
	ch := te.ch.Load()

	adm.Outcome = core.AdmissionPending
	adm.Reason = "admission decision round trip in flight"
	err := ch.Push(eventchan.Event{Type: EvTaskArrive, Payload: AppendTaskArrive(nil, &TaskArrive{
		Task:         taskID,
		Job:          job,
		Proc:         proc,
		ArrivalNanos: arrival,
	})})
	if err != nil {
		// The arrival failed (shed or transport loss): no Accept will
		// answer this hold, so release it — a late decision for the ref is
		// dropped as stale by onAccept. The outcome is terminal: no watch
		// event will ever resolve this admission, so it must not read as
		// pending.
		te.mu.Lock()
		delete(te.waiting, ref)
		te.mu.Unlock()
		if TransportOverloaded(err) {
			atomic.AddInt64(&te.Stats.Overloaded, 1)
		}
		adm.Outcome = core.AdmissionRejected
		adm.Reason = "arrival shed: " + err.Error()
	}
	te.HoldPush.Add(time.Since(start))
	return adm, err
}

// minWaitingSweep is the smallest waiting-map size that triggers a sweep.
const minWaitingSweep = 128

// sweepWaitingLocked amortizes hold cleanup: once the waiting map reaches
// the watermark, holds older than the longest task deadline — which can no
// longer receive a meaningful decision — are purged, and the watermark
// doubles with the surviving population. Called with te.mu held.
func (te *TaskEffector) sweepWaitingLocked(nowNanos int64) {
	if len(te.waiting) < te.sweepAt || te.maxDeadline <= 0 {
		return
	}
	horizon := nowNanos - int64(te.maxDeadline)
	for ref, arrived := range te.waiting {
		if arrived < horizon {
			delete(te.waiting, ref)
		}
	}
	te.sweepAt = 2 * len(te.waiting)
	if te.sweepAt < minWaitingSweep {
		te.sweepAt = minWaitingSweep
	}
}

// TransportOverloaded reports whether err is the event plane's explicit
// backpressure signal (a full gateway sink queue) rather than a transport
// failure: the operation was shed, not broken.
func TransportOverloaded(err error) bool {
	return errors.Is(err, eventchan.ErrBackpressure)
}

// onAccept handles a decision event. Only the task's home effector acts: it
// clears the hold and publishes the Release event, which the federation
// routes to the node hosting the assigned first stage.
func (te *TaskEffector) onAccept(ev eventchan.Event) {
	if !te.homeOf(ev.Payload) {
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
	te.mu.Lock()
	ref := sched.JobRef{Task: dec.Task, Job: dec.Job}
	if _, held := te.waiting[ref]; !held {
		// Duplicate or stale decision.
		te.mu.Unlock()
		return
	}
	delete(te.waiting, ref)

	if dec.PerTaskDecision && dec.Epoch == te.epoch {
		// Same-epoch decisions become cached per-task policy; a stale
		// decision from before a reconfiguration still settles its own job
		// below but must not survive the swap as policy.
		if _, ok := te.cachedDecision(dec.Task); !ok {
			cached := dec
			te.storeDecision(dec.Task, &cached)
		}
	}
	te.mu.Unlock()

	if !dec.Ok {
		atomic.AddInt64(&te.Stats.Skipped, 1)
		return
	}
	atomic.AddInt64(&te.Stats.Released, 1)
	if dec.Relocated {
		atomic.AddInt64(&te.Stats.Relocated, 1)
	}
	te.release(te.ch.Load(), dec.Task, dec.Job, dec.Placement, dec.ArrivalNanos)
}

// homeOf reports whether an Accept payload decides a task whose home
// (arrival) processor is this effector's. The admission controller addresses
// an Accept to the arrival processor, but a gateway that does not know which
// processor a sink is still broadcasts, so an effector may see any Accept;
// one that is not home answers from the payload's header, without decoding
// the placement or copying the task ID.
func (te *TaskEffector) homeOf(payload []byte) bool {
	id, ok := acceptTask(payload)
	tp := te.tasks.Load()
	if !ok || tp == nil {
		return false
	}
	tt, known := (*tp)[string(id)] // indexing by string(id) does not copy
	if !known {
		return false
	}
	home := tt.task.Load().Subtasks[0].Processor
	te.mu.Lock()
	defer te.mu.Unlock()
	return home == te.proc
}

// release publishes the Release event that starts the first subtask. The
// event channel delivers it locally and forwards it to the assigned
// processor's node, where the subtask component picks it up.
func (te *TaskEffector) release(ch *eventchan.Channel, task string, job int64, placement []sched.PlacedStage, arrivalNanos int64) {
	if ch == nil {
		return
	}
	_ = ch.PushTo(stageProc(placement, 0), eventchan.Event{Type: EvRelease, Payload: AppendTrigger(nil, &Trigger{
		Task:         task,
		Job:          job,
		Stage:        0,
		Placement:    placement,
		ArrivalNanos: arrivalNanos,
	})})
}
