package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// Decision is the admission controller's answer to a "Task Arrive" event.
type Decision struct {
	// Accept reports whether the job may be released.
	Accept bool
	// Placement is the processor assignment for each stage of the job. It is
	// nil when Accept is false. Callers must treat it as read-only: under
	// LB-none, and for a periodic task under LB-per-task, it aliases the
	// controller's per-task memory.
	Placement []sched.PlacedStage
	// Relocated reports whether the first stage was assigned away from the
	// task's home (arrival) processor, so the release must go to the
	// duplicate's task effector.
	Relocated bool
	// Tested reports whether an admission test was actually evaluated for
	// this arrival (per-task AC skips the test for jobs of already-admitted
	// periodic tasks).
	Tested bool
	// Reserved reports that the accepted contributions are a permanent
	// per-task reservation: the caller must not schedule a deadline-expiry
	// removal for them.
	Reserved bool
}

// Controller implements the centralized admission control and load balancing
// services deployed on the task manager processor (paper Section 3). It owns
// the AUB synthetic-utilization ledger and the per-task decision memory, and
// is driven by "Task Arrive" and "Idle Resetting" events.
//
// Per-task state is keyed by the task's sched.TaskRef, which the binding
// hands out: Decide, ExpireKey, IdleResetKeys, RemoveTask and Location take
// refs, and both bindings call only those. Arrive, ExpireJob and IdleReset
// are the name edge the frozen benchmark probe drives: each resolves the
// name through the controller's own task table and runs the ref-keyed core.
// A controller is driven through one of the two, never both.
//
// Concurrency: Arrive, ExpireJob, IdleReset, and Location are safe to call
// from multiple goroutines. Every ledger operation takes the ledger's one
// mutex (test and commit are one critical section there); aperiodic
// arrivals take no other lock past a task's first arrival, and periodic-task
// flows also serialize on an internal mutex protecting the per-task decision
// memory. Reconfigure and RemoveTask mutate the strategy configuration and
// decision memory and must not run concurrently with arrivals — callers
// quiesce first (the live binding holds its reconfiguration write lock; the
// DES engine is single-threaded).
type Controller struct {
	cfg    Config
	ledger *sched.Ledger
	// tasks binds the names of the name edge to refs.
	tasks *sched.TaskTable

	// taskMu guards the per-task decision memory in the records (every field
	// but task and home). Every periodic-task flow holds it.
	taskMu sync.Mutex

	// recs indexes the per-task records by ref. Readers load it without a
	// lock. recMu serializes creating a record: the creator re-checks the
	// slot, grows the index by copying it when the ref is past its end, and
	// publishes the record with an atomic store, so concurrent first arrivals
	// of one task create one record.
	recs  atomic.Pointer[[]atomic.Pointer[taskRec]]
	recMu sync.Mutex
	// slab and stages are the chunks records and their home placements are
	// cut from, under recMu.
	slab   []taskRec
	stages []sched.PlacedStage

	// scratch pools balanced-placement accumulators (*[]float64, one slot per
	// processor), so concurrent balanced placements neither allocate nor
	// contend on a shared buffer.
	scratch sync.Pool

	// Stats accumulate controller-side counters for the experiments. Fields
	// are updated atomically; read them only after arrivals quiesce.
	Stats ControllerStats

	// timing, when non-nil, measures operation durations with the real
	// clock (EnableTiming). OpStats adds are internally synchronized.
	timing *Timing
}

// taskRec is the controller's memory of one task incarnation (one ref),
// created at the first arrival that needs it: under LB-none, or for a
// periodic task under per-task admission or balancing. Tasks that never get
// there cost nothing.
type taskRec struct {
	// task is the incarnation's definition, for its name, and ref its key.
	task *sched.Task
	ref  sched.TaskRef
	// home places every stage on its home processor: a pure function of the
	// task, filled before the record is published and read-only after.
	home []sched.PlacedStage
	// placement is a periodic task's LB-per-task assignment, fixed at its
	// first arrival and handed out read-only. admitted and rejected are the
	// per-task AC decision (the test runs only "when a task first arrives");
	// an admitted task's permanent reservation is held under job resJob.
	placement []sched.PlacedStage
	resJob    int64
	admitted  bool
	rejected  bool
}

// Record and home-placement chunk sizes: a run in which most tasks arrive
// once pays the allocator once per chunk.
const (
	recChunk   = 64
	stageChunk = 256
)

// ControllerStats counts controller activity.
type ControllerStats struct {
	// Tests is the number of admission tests evaluated.
	Tests int64
	// Accepts and Rejects count decisions returned to task effectors.
	Accepts int64
	Rejects int64
	// Relocations counts accepted jobs whose first stage moved off the
	// arrival processor.
	Relocations int64
	// IdleResets counts contributions removed by idle-resetting reports.
	IdleResets int64
	// Expiries counts contributions removed because their job's absolute
	// deadline passed.
	Expiries int64
	// TaskRemovals counts contributions withdrawn because a task left the
	// system entirely (RemoveTask).
	TaskRemovals int64
	// Reconfigs counts strategy reconfigurations applied to this controller,
	// and ReconfigReleased the ledger contributions withdrawn by their
	// reservation rebases.
	Reconfigs        int64
	ReconfigReleased int64
}

// NewController returns a controller for the given strategy configuration
// over numProcs application processors. The configuration must be valid.
func NewController(cfg Config, numProcs int) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numProcs <= 0 {
		return nil, fmt.Errorf("core: controller needs at least one processor, got %d", numProcs)
	}
	c := &Controller{
		cfg:    cfg,
		ledger: sched.NewLedger(numProcs),
		tasks:  sched.NewTaskTable(nil, nil),
	}
	c.scratch.New = func() any {
		buf := make([]float64, numProcs)
		return &buf
	}
	return c, nil
}

// Config returns the controller's strategy configuration.
func (c *Controller) Config() Config { return c.cfg }

// Reconfigure swaps the controller's strategy combination in place while the
// system keeps running: the admission ledger — and with it every in-flight
// job's contributions — survives, and only the strategy-specific decision
// memory is rebased under the new configuration:
//
//   - AC leaving per-task: the permanent per-task reservations are withdrawn
//     from the ledger (per-job admission tests each arrival individually),
//     and the per-task admitted/rejected memory is cleared so every task is
//     re-evaluated under the new strategy. Jobs already released keep
//     running: a reservation only backs future admission decisions.
//   - AC entering per-task: nothing is withdrawn; each periodic task is
//     tested and reserved at its next arrival.
//   - LB change: per-task placement memory is cleared so the next arrival
//     computes a fresh assignment under the new balancing rule. An existing
//     per-task reservation is not moved eagerly; under LB-per-job it follows
//     the next job's relocation as usual.
//
// Invalid target combinations are rejected without touching any state. It
// returns the number of ledger contributions released by the rebase. The
// caller must quiesce arrivals first (see the Controller comment).
func (c *Controller) Reconfigure(cfg Config) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	c.taskMu.Lock()
	defer c.taskMu.Unlock()
	released := 0
	recs := c.records()
	if c.cfg.AC == StrategyPerTask && cfg.AC != StrategyPerTask {
		// Withdraw in sorted task order so the ledger's floating-point
		// subtraction sequence is reproducible run to run.
		sort.Slice(recs, func(i, j int) bool { return recs[i].task.ID < recs[j].task.ID })
		for _, r := range recs {
			if r.admitted {
				released += c.ledger.WithdrawKey(sched.JobKey{Task: r.ref, Job: r.resJob})
			}
			r.admitted, r.rejected = false, false
		}
	}
	if c.cfg.LB != cfg.LB {
		for _, r := range recs {
			r.placement = nil
		}
	}
	c.cfg = cfg
	atomic.AddInt64(&c.Stats.Reconfigs, 1)
	atomic.AddInt64(&c.Stats.ReconfigReleased, int64(released))
	return released, nil
}

// Ledger exposes the synthetic-utilization ledger for instrumentation and
// the idle-resetting path.
func (c *Controller) Ledger() *sched.Ledger { return c.ledger }

// Reservations snapshots the permanent per-task reservation keys (AC-per-task
// only) in the order a strategy swap away from per-task admission control
// withdraws them (by task name). The live AC's replication stream uses it to
// mirror exactly those withdrawals on the warm standby.
func (c *Controller) Reservations() []sched.JobKey {
	c.taskMu.Lock()
	defer c.taskMu.Unlock()
	recs := c.records()
	sort.Slice(recs, func(i, j int) bool { return recs[i].task.ID < recs[j].task.ID })
	keys := []sched.JobKey{}
	for _, r := range recs {
		if r.admitted {
			keys = append(keys, sched.JobKey{Task: r.ref, Job: r.resJob})
		}
	}
	return keys
}

// Reservation returns the key of the permanent per-task reservation task
// tr holds (AC-per-task only), if it holds one.
func (c *Controller) Reservation(tr sched.TaskRef) (sched.JobKey, bool) {
	c.taskMu.Lock()
	defer c.taskMu.Unlock()
	if r := c.loadRecord(tr); r != nil && r.admitted {
		return sched.JobKey{Task: tr, Job: r.resJob}, true
	}
	return sched.JobKey{}, false
}

// loadRecord returns the task's record, or nil before its first arrival
// that needs one.
//
//rtmw:noalloc
func (c *Controller) loadRecord(ref sched.TaskRef) *taskRec {
	if idx := c.recs.Load(); idx != nil && int(ref) < len(*idx) {
		return (*idx)[ref].Load()
	}
	return nil
}

// record returns the task's record, creating it on first use.
//
//rtmw:noalloc
func (c *Controller) record(ref sched.TaskRef, t *sched.Task) *taskRec {
	if r := c.loadRecord(ref); r != nil {
		return r
	}
	return c.newRecord(ref, t)
}

// newRecord is record's slow path: under recMu it re-checks the slot, cuts
// the record and its home placement from the chunks, and publishes it.
func (c *Controller) newRecord(ref sched.TaskRef, t *sched.Task) *taskRec {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	idx := c.recs.Load()
	if idx == nil || int(ref) >= len(*idx) {
		var old []atomic.Pointer[taskRec]
		if idx != nil {
			old = *idx
		}
		grown := make([]atomic.Pointer[taskRec], max(2*len(old), int(ref)+1, recChunk))
		for i := range old {
			grown[i].Store(old[i].Load())
		}
		idx = &grown
		c.recs.Store(idx)
	} else if r := (*idx)[ref].Load(); r != nil {
		return r
	}
	if len(c.slab) == 0 {
		c.slab = make([]taskRec, recChunk)
	}
	r := &c.slab[0]
	c.slab = c.slab[1:]
	n := len(t.Subtasks)
	if len(c.stages) < n {
		c.stages = make([]sched.PlacedStage, max(stageChunk, n))
	}
	r.task, r.ref, r.home = t, ref, homePlacement(c.stages[:n:n], t)
	c.stages = c.stages[n:]
	(*idx)[ref].Store(r)
	return r
}

// records lists the live records in ref order.
func (c *Controller) records() []*taskRec {
	idx := c.recs.Load()
	if idx == nil {
		return nil
	}
	var out []*taskRec
	for i := range *idx {
		if r := (*idx)[i].Load(); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// homePlacement places every stage of t on its home processor, into out
// (len(t.Subtasks) long).
func homePlacement(out []sched.PlacedStage, t *sched.Task) []sched.PlacedStage {
	for i, st := range t.Subtasks {
		out[i] = sched.PlacedStage{Stage: i, Proc: st.Processor, Util: t.StageUtil(i)}
	}
	return out
}

// balancedPlacement implements the paper's load balancing heuristic: each
// stage goes to the candidate processor (home or replica) with the lowest
// synthetic utilization, accounting for the contributions already placed for
// earlier stages of the same job. Ties go to the candidate listed first, so
// the home processor wins ties deterministically. The per-job accumulator is
// a pooled dense scratch slice, zeroed before it is returned to the pool.
func (c *Controller) balancedPlacement(t *sched.Task) []sched.PlacedStage {
	out := make([]sched.PlacedStage, len(t.Subtasks))
	sp := c.scratch.Get().(*[]float64)
	delta := *sp
	for i, st := range t.Subtasks {
		u := t.StageUtil(i)
		best := st.Processor
		bestUtil := c.ledger.Util(best) + delta[best]
		for _, cand := range st.Replicas {
			if cu := c.ledger.Util(cand) + delta[cand]; cu < bestUtil {
				best, bestUtil = cand, cu
			}
		}
		out[i] = sched.PlacedStage{Stage: i, Proc: best, Util: u}
		delta[best] += u
	}
	for _, p := range out {
		delta[p.Proc] = 0
	}
	c.scratch.Put(sp)
	return out
}

// placeFor computes the placement for an arriving job per the LB strategy.
// Callers hold taskMu when t is periodic (the per-task memo paths).
func (c *Controller) placeFor(ref sched.TaskRef, t *sched.Task) []sched.PlacedStage {
	switch c.cfg.LB {
	case StrategyPerTask:
		// Periodic tasks are assigned once, at first arrival; every
		// aperiodic arrival is an independent task with a single release and
		// is assigned at that arrival.
		if t.Kind != sched.Periodic {
			return c.balancedPlacement(t)
		}
		r := c.record(ref, t)
		if r.placement == nil {
			r.placement = c.balancedPlacement(t)
		}
		return r.placement
	case StrategyPerJob:
		return c.balancedPlacement(t)
	default:
		return c.record(ref, t).home
	}
}

// Arrive processes a "Task Arrive" event for job number job of task t at
// virtual time now, and returns the admission decision. For accepted jobs
// whose contributions expire (everything except per-task periodic
// reservations), the caller must arrange to call ExpireJob at now +
// t.Deadline. A task name the controller has not seen gets a fresh ref.
// It is the name edge of Decide; the frozen benchmark probe
// benchmark/probe_core.go calls it.
func (c *Controller) Arrive(t *sched.Task, job int64, now time.Duration) Decision {
	return c.arrive(sched.JobKey{Task: c.tasks.Intern(t), Job: job}, t, now)
}

// Decide is the AC's decide step for job k of task t (k.Task is t's ref),
// which arrived at arrival and is decided at now. It returns the decision,
// whether the task effector may cache it as the task's policy, and the
// instant the job's contributions expire: never before now, and zero when
// nothing expires (a rejection, or a permanent per-task reservation).
func (c *Controller) Decide(k sched.JobKey, t *sched.Task, arrival, now time.Duration) (Decision, bool, time.Duration) {
	d := c.arrive(k, t, arrival)
	var expireAt time.Duration
	if d.Accept && !d.Reserved {
		expireAt = max(arrival+t.Deadline, now)
	}
	_, cached := c.cfg.perTask(t.Kind)
	return d, cached, expireAt
}

// arrive is Arrive for job k of task t, k.Task being t's ref.
func (c *Controller) arrive(k sched.JobKey, t *sched.Task, now time.Duration) Decision {
	if t.Kind == sched.Aperiodic {
		// Every aperiodic arrival is an independent task with one release:
		// it is tested regardless of the AC strategy, and it touches no
		// per-task decision memory, so it proceeds without taskMu.
		return c.testAndAdmit(t, k, now, false)
	}

	c.taskMu.Lock()
	defer c.taskMu.Unlock()
	switch c.cfg.AC {
	case StrategyPerJob:
		return c.testAndAdmit(t, k, now, false)
	case StrategyPerTask:
		return c.arrivePerTask(t, k, now)
	default:
		return Decision{}
	}
}

// arrivePerTask handles periodic arrivals under per-task admission control.
// Caller holds taskMu.
func (c *Controller) arrivePerTask(t *sched.Task, k sched.JobKey, now time.Duration) Decision {
	r := c.record(k.Task, t)
	if r.rejected {
		atomic.AddInt64(&c.Stats.Rejects, 1)
		return Decision{}
	}
	if !r.admitted {
		// First arrival: test once and reserve the task's synthetic
		// utilization for its lifetime (permanent contribution under the
		// first arrival's job number).
		d := c.testAndAdmit(t, k, now, true)
		if d.Accept {
			r.admitted, r.resJob = true, k.Job
		} else {
			r.rejected = true
		}
		return d
	}

	// Subsequent jobs of an admitted task release without re-testing. Under
	// LB-per-job the assignment plan may still change: the reservation
	// follows the job to the new placement.
	placement := c.placeFor(k.Task, t)
	if c.cfg.LB == StrategyPerJob {
		if err := c.ledger.Relocate(sched.JobKey{Task: k.Task, Job: r.resJob}, placement); err != nil {
			// The reservation is always present for admitted tasks; an error
			// here is a programming bug worth surfacing loudly in tests.
			panic(fmt.Sprintf("core: relocate reservation for admitted task %s: %v", t.ID, err))
		}
	}
	atomic.AddInt64(&c.Stats.Accepts, 1)
	d := Decision{
		Accept:    true,
		Placement: placement,
		Relocated: placement[0].Proc != t.Subtasks[0].Processor,
	}
	if d.Relocated {
		atomic.AddInt64(&c.Stats.Relocations, 1)
	}
	return d
}

// testAndAdmit runs the load balancer's Location call and the AUB admission
// test, recording contributions when the job is accepted. The test and the
// commit are one atomic ledger operation (TestAndAdd), so two concurrent
// candidates can never both pass a test that only has room for one. Callers
// hold taskMu when t is periodic.
func (c *Controller) testAndAdmit(t *sched.Task, k sched.JobKey, now time.Duration, permanent bool) Decision {
	var t0 time.Time
	if c.timing != nil {
		t0 = time.Now()
	}
	placement := c.placeFor(k.Task, t)
	var t1 time.Time
	if c.timing != nil {
		t1 = time.Now()
		c.timing.Location.Add(t1.Sub(t0))
	}
	expiry := now + t.Deadline
	if permanent {
		expiry = 0
	}
	atomic.AddInt64(&c.Stats.Tests, 1)
	admitted, _ := c.ledger.TestAndAddKey(k, t.Kind, placement, permanent, expiry)
	if c.timing != nil {
		c.timing.Test.Add(time.Since(t1))
	}
	if !admitted {
		atomic.AddInt64(&c.Stats.Rejects, 1)
		return Decision{Tested: true}
	}
	atomic.AddInt64(&c.Stats.Accepts, 1)
	d := Decision{
		Accept:    true,
		Placement: placement,
		Relocated: placement[0].Proc != t.Subtasks[0].Processor,
		Tested:    true,
		Reserved:  permanent,
	}
	if d.Relocated {
		atomic.AddInt64(&c.Stats.Relocations, 1)
	}
	return d
}

// Location answers the paper's LB "Location" call for inspection purposes:
// it computes the placement the load balancer would propose for an arrival
// of task t (ref tr) without mutating any per-task assignment memory. The
// admission path itself uses the internal (memoizing) placement.
func (c *Controller) Location(tr sched.TaskRef, t *sched.Task) []sched.PlacedStage {
	switch c.cfg.LB {
	case StrategyPerTask:
		if t.Kind == sched.Periodic {
			c.taskMu.Lock()
			var p []sched.PlacedStage
			if r := c.loadRecord(tr); r != nil {
				p = slices.Clone(r.placement)
			}
			c.taskMu.Unlock()
			if p != nil {
				return p
			}
		}
		return c.balancedPlacement(t)
	case StrategyPerJob:
		return c.balancedPlacement(t)
	default:
		return homePlacement(make([]sched.PlacedStage, len(t.Subtasks)), t)
	}
}

// ExpireJob is ExpireKey for a job named by task name. Only the frozen
// benchmark probe benchmark/probe_core.go calls it.
func (c *Controller) ExpireJob(ref sched.JobRef) int {
	tr, ok := c.tasks.Lookup(ref.Task)
	if !ok {
		return 0
	}
	return c.ExpireKey(sched.JobKey{Task: tr, Job: ref.Job})
}

// ExpireKey removes the remaining contributions of a job whose absolute
// deadline passed. Per-task reservations are unaffected. It returns the
// number of contributions removed (zero for jobs already fully reset or
// unknown), so callers can account expiry work without rescanning.
func (c *Controller) ExpireKey(k sched.JobKey) int {
	n := c.ledger.ExpireJob(k)
	atomic.AddInt64(&c.Stats.Expiries, int64(n))
	return n
}

// RemoveTask withdraws a task incarnation from the system entirely: its
// remaining ledger contributions (including a permanent per-task
// reservation) are released through the ledger's task index, and the
// controller forgets its per-task decision memory. The ref is never handed
// out again, so a task re-added under the same name is new. It returns the
// number of contributions removed. The caller must quiesce arrivals first
// (see the Controller comment).
func (c *Controller) RemoveTask(tr sched.TaskRef) int {
	n := c.ledger.RemoveTask(tr)
	atomic.AddInt64(&c.Stats.TaskRemovals, int64(n))
	c.recMu.Lock()
	if idx := c.recs.Load(); idx != nil && int(tr) < len(*idx) {
		(*idx)[tr].Store(nil)
	}
	c.recMu.Unlock()
	return n
}

// IdleReset is IdleResetKeys for a report naming jobs by task name; an
// entry of a name the controller does not know releases nothing. Only the
// frozen benchmark probe benchmark/probe_core.go calls it.
func (c *Controller) IdleReset(reports []sched.EntryRef) int {
	var buf [8]sched.Entry[sched.JobKey]
	keys := buf[:0]
	for _, r := range reports {
		if tr, ok := c.tasks.Lookup(r.Ref.Task); ok {
			keys = append(keys, sched.Entry[sched.JobKey]{Ref: sched.JobKey{Task: tr, Job: r.Ref.Job}, Stage: r.Stage, Proc: r.Proc})
		}
	}
	return c.IdleResetKeys(keys)
}

// IdleResetKeys processes an "Idle Resetting" event: the reported subjobs
// are marked complete and their contributions removed per the resetting
// rule. It returns the number of contributions actually removed.
func (c *Controller) IdleResetKeys(reports []sched.Entry[sched.JobKey]) int {
	var t0 time.Time
	if c.timing != nil {
		t0 = time.Now()
	}
	n := 0
	for _, r := range reports {
		if c.ledger.ResetReported(r) {
			n++
		}
	}
	if c.timing != nil {
		c.timing.Reset.Add(time.Since(t0))
	}
	atomic.AddInt64(&c.Stats.IdleResets, int64(n))
	return n
}
