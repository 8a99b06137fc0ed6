package core

import (
	"fmt"
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
	// nil when Accept is false. Two placements alias the controller's
	// per-task memory and must be treated as read-only: the home placement
	// under LB-none, and a periodic task's memo under LB-per-task, which
	// every job of the task shares. Every other placement (LB-per-job, and
	// an aperiodic task's under LB-per-task) is the job's own: the
	// controller hands its stages out again only once the caller hands them
	// back (the simulation does, at the job's completion), so it stays
	// valid and unshared for as long as the caller keeps it.
	Placement []sched.PlacedStage
	// Relocated reports whether the first stage was assigned away from the
	// task's home (arrival) processor, so the release must go to the
	// duplicate's task effector.
	Relocated bool
	// Reserved reports that the accepted contributions are a permanent
	// per-task reservation: the caller must not schedule a deadline-expiry
	// removal for them.
	Reserved bool
	// fresh reports that Placement is the job's own: a binding that drops
	// its last use of it may hand it back (releasePlacement).
	fresh bool
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
// Concurrency: a controller is safe for concurrent use, Reconfigure,
// RemoveTask and RehomeTask against decisions included. Each decision,
// reconfiguration, removal, Location call and placement hand-back is one
// critical section under mu, which guards every field below but the ledger,
// the task table and Stats; ExpireKey and IdleResetKeys touch only the
// ledger. Lock order: mu, then the ledger's own mutex; the ledger never
// calls back. Callers still quiesce arrivals around a reconfiguration, for
// the protocol's sake (the live binding holds its reconfiguration write
// lock; the DES engine is single-threaded).
type Controller struct {
	mu     sync.Mutex
	cfg    Config
	ledger *sched.Ledger
	// tasks binds the names of the name edge to refs.
	tasks *sched.TaskTable

	// recs indexes the per-task records by ref; slab is the chunk records
	// are cut from.
	recs []*taskRec
	slab []taskRec

	// scratch is the balanced placement's accumulator, one slot per
	// processor and all zero between placements; stages is the chunk every
	// placement is cut from, and spare[n] lists the n-stage placements
	// handed back (releasePlacement). They are plain fields, not a
	// sync.Pool: the runtime's list of pools would keep a dropped
	// controller, its ledger included, alive through one more GC.
	scratch []float64
	stages  []sched.PlacedStage
	spare   [][][]sched.PlacedStage

	// Stats accumulate controller-side counters for the experiments. Fields
	// but Ledger are updated atomically, so they may be read atomically
	// while decisions run.
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
	// placement is handed out read-only to every job: under LB-none the
	// task's home placement, under LB-per-task a periodic task's assignment
	// fixed at its first arrival (taskPlacement). A record kept across a
	// change of LB strategy has none until its next arrival (Reconfigure).
	placement []sched.PlacedStage
	// resv is the per-task AC decision (the test runs only "when a task
	// first arrives"): 0 untested, resvRefused, or 1 + the job an admitted
	// task's permanent reservation is held under.
	resv int64
}

// resvRefused marks a task the per-task admission test refused for its
// lifetime (taskRec.resv).
const resvRefused = -1

// Record and stage chunk sizes: a run in which most tasks arrive once pays
// the allocator once per chunk. 63 records of 32 B and the 8-byte header
// the allocator puts before an object with pointers fill a 2 KB size class.
const (
	recChunk   = 63
	stageChunk = 256
)

// ControllerStats counts controller activity.
type ControllerStats struct {
	// Tests is the number of admission tests evaluated.
	Tests int64
	// Accepts and Rejects count decisions returned to task effectors.
	Accepts int64
	Rejects int64
	// HeldKeys counts the rejections the ledger refused with an error: a
	// job key it already held (the controller's own placements always pass
	// the ledger's placement check).
	HeldKeys int64
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
	// Ledger is the admission ledger's work counts, which the ledger adds
	// to under its own lock; read them only after arrivals quiesce.
	Ledger sched.Work
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
		cfg:     cfg,
		ledger:  sched.NewLedger(numProcs),
		tasks:   new(sched.TaskTable),
		scratch: make([]float64, numProcs),
	}
	c.ledger.CountWork(&c.Stats.Ledger)
	return c, nil
}

// Config returns the controller's strategy configuration.
func (c *Controller) Config() Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg
}

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
// returns the number of ledger contributions released by the rebase.
func (c *Controller) Reconfigure(cfg Config) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	released := 0
	leaveAC, leaveLB := c.cfg.AC == StrategyPerTask && cfg.AC != StrategyPerTask, c.cfg.LB != cfg.LB
	for i, r := range c.recs {
		if r == nil {
			continue
		}
		ref := sched.TaskRef(i)
		if leaveAC {
			if r.resv > 0 {
				released += c.ledger.WithdrawKey(sched.JobKey{Task: ref, Job: r.resv - 1})
			}
			r.resv = 0
		}
		// A record no per-task decision holds goes, and its next arrival
		// makes it again under the new LB; the rest are periodic tasks',
		// whose next arrival places them afresh.
		if leaveLB && r.resv == 0 {
			c.recs[ref] = nil
		} else if leaveLB {
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

// record returns the task's record, creating it on first use: cut from the
// slab, placed, and indexed.
//
//rtmw:noalloc
func (c *Controller) record(ref sched.TaskRef, t *sched.Task) *taskRec {
	c.growRecords(int(ref) + 1)
	if r := c.recs[ref]; r != nil {
		return r
	}
	if len(c.slab) == 0 {
		//rtmw:ignore noalloc one chunk per recChunk records, never per job
		c.slab = make([]taskRec, recChunk)
	}
	r := &c.slab[0]
	c.slab = c.slab[1:]
	*r = taskRec{placement: c.taskPlacement(t)}
	c.recs[ref] = r
	return r
}

// growRecords makes the record index cover refs below n: a ref past its end
// grows it by copying, to twice its length at least.
func (c *Controller) growRecords(n int) {
	if n > len(c.recs) {
		grown := make([]*taskRec, max(2*len(c.recs), n, recChunk))
		copy(grown, c.recs)
		c.recs = grown
	}
}

// reserveTasks sizes the record index and the ledger's task lists for refs
// below n at once, so a run over n tasks grows neither.
func (c *Controller) reserveTasks(n int) {
	c.mu.Lock()
	c.growRecords(n)
	c.mu.Unlock()
	c.ledger.ReserveTasks(n)
}

// cutStages returns n stages for a placement: n handed back, or else a cut
// from the chunk, which is dropped once used up.
func (c *Controller) cutStages(n int) []sched.PlacedStage {
	if n < len(c.spare) && len(c.spare[n]) > 0 {
		p := c.spare[n][len(c.spare[n])-1]
		c.spare[n] = c.spare[n][:len(c.spare[n])-1]
		return p
	}
	if len(c.stages) < n {
		c.stages = make([]sched.PlacedStage, max(stageChunk, n))
	}
	p := c.stages[:n:n]
	c.stages = c.stages[n:]
	return p
}

// releasePlacement hands back a fresh decision placement (Decision.fresh)
// that nothing uses any more; a later placement of as many stages reuses
// it.
func (c *Controller) releasePlacement(p []sched.PlacedStage) {
	c.mu.Lock()
	c.spareStages(p)
	c.mu.Unlock()
}

// spareStages is releasePlacement for a caller holding mu.
func (c *Controller) spareStages(p []sched.PlacedStage) {
	if n := len(p); n >= len(c.spare) {
		c.spare = append(c.spare, make([][][]sched.PlacedStage, n+1-len(c.spare))...)
	}
	c.spare[len(p)] = append(c.spare[len(p)], p)
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
// the controller's dense scratch, zeroed again before it returns. It fills
// out, len(t.Subtasks) long, and returns it.
func (c *Controller) balancedPlacement(t *sched.Task, out []sched.PlacedStage) []sched.PlacedStage {
	delta := c.scratch
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
	return out
}

// taskPlacement places t for its record (taskRec.placement): home under
// LB-none, balanced once under LB-per-task, and not at all under
// LB-per-job, where every job is placed on its own.
func (c *Controller) taskPlacement(t *sched.Task) []sched.PlacedStage {
	switch c.cfg.LB {
	case StrategyNone:
		return homePlacement(c.cutStages(len(t.Subtasks)), t)
	case StrategyPerTask:
		return c.balancedPlacement(t, c.cutStages(len(t.Subtasks)))
	}
	return nil
}

// placeFor computes the placement for an arriving job per the LB strategy:
// a decision with it, and fresh when the placement is the job's own.
func (c *Controller) placeFor(ref sched.TaskRef, t *sched.Task) Decision {
	if c.cfg.LB == StrategyPerJob || c.cfg.LB == StrategyPerTask && t.Kind != sched.Periodic {
		// Every aperiodic arrival is an independent task with a single
		// release, assigned at that arrival.
		return Decision{Placement: c.balancedPlacement(t, c.cutStages(len(t.Subtasks))), fresh: true}
	}
	r := c.record(ref, t)
	if r.placement == nil {
		r.placement = c.taskPlacement(t)
	}
	return Decision{Placement: r.placement}
}

// Arrive processes a "Task Arrive" event for job number job of task t at
// virtual time now, and returns the admission decision. For accepted jobs
// whose contributions expire (everything except per-task periodic
// reservations), the caller must arrange to call ExpireJob at now +
// t.Deadline. A task name the controller has not seen gets a fresh ref.
// It is the name edge of Decide; the frozen benchmark probe
// benchmark/probe_core.go calls it.
func (c *Controller) Arrive(t *sched.Task, job int64, now time.Duration) Decision {
	k := sched.JobKey{Task: c.tasks.Intern(t), Job: job}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arrive(k, t, now)
}

// Decide is the AC's decide step for job k of task t (k.Task is t's ref),
// which arrived at arrival and is decided at now. It returns the decision,
// whether the task effector may cache it as the task's policy, and the
// instant the job's contributions expire: never before now, and zero when
// nothing expires (a rejection, or a permanent per-task reservation).
func (c *Controller) Decide(k sched.JobKey, t *sched.Task, arrival, now time.Duration) (Decision, bool, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.arrive(k, t, arrival)
	var expireAt time.Duration
	if d.Accept && !d.Reserved {
		expireAt = max(arrival+t.Deadline, now)
	}
	_, cached := c.cfg.perTask(t.Kind)
	return d, cached, expireAt
}

// arrive is Arrive for job k of task t, k.Task being t's ref. Caller holds
// mu.
func (c *Controller) arrive(k sched.JobKey, t *sched.Task, now time.Duration) Decision {
	if t.Kind == sched.Aperiodic {
		// Every aperiodic arrival is an independent task with one release:
		// it is tested regardless of the AC strategy.
		return c.testAndAdmit(t, k, now, false)
	}
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
func (c *Controller) arrivePerTask(t *sched.Task, k sched.JobKey, now time.Duration) Decision {
	r := c.record(k.Task, t)
	if r.resv == resvRefused {
		atomic.AddInt64(&c.Stats.Rejects, 1)
		return Decision{}
	}
	if r.resv == 0 {
		// First arrival: test once and reserve the task's synthetic
		// utilization for its lifetime (permanent contribution under the
		// first arrival's job number).
		d := c.testAndAdmit(t, k, now, true)
		r.resv = resvRefused
		if d.Accept {
			r.resv = k.Job + 1
		}
		return d
	}

	// Subsequent jobs of an admitted task release without re-testing. Under
	// LB-per-job the assignment plan may still change: the reservation
	// follows the job to the new placement.
	d := c.placeFor(k.Task, t)
	placement := d.Placement
	if c.cfg.LB == StrategyPerJob {
		if err := c.ledger.Relocate(sched.JobKey{Task: k.Task, Job: r.resv - 1}, placement); err != nil {
			// The reservation is always present for admitted tasks; an error
			// here is a programming bug worth surfacing loudly in tests.
			panic(fmt.Sprintf("core: relocate reservation for admitted task %s: %v", t.ID, err))
		}
	}
	atomic.AddInt64(&c.Stats.Accepts, 1)
	d.Accept = true
	d.Relocated = placement[0].Proc != t.Subtasks[0].Processor
	if d.Relocated {
		atomic.AddInt64(&c.Stats.Relocations, 1)
	}
	return d
}

// testAndAdmit runs the load balancer's Location call and the AUB admission
// test, recording contributions when the job is accepted. The test and the
// commit are one atomic ledger operation (TestAndAdd), so two concurrent
// candidates can never both pass a test that only has room for one.
func (c *Controller) testAndAdmit(t *sched.Task, k sched.JobKey, now time.Duration, permanent bool) Decision {
	var t0 time.Time
	if c.timing != nil {
		t0 = time.Now()
	}
	d := c.placeFor(k.Task, t)
	placement := d.Placement
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
	admitted, err := c.ledger.TestAndAddKey(k, t.Kind, placement, permanent, expiry)
	if c.timing != nil {
		c.timing.Test.Add(time.Since(t1))
	}
	if err != nil {
		atomic.AddInt64(&c.Stats.HeldKeys, 1)
	}
	if !admitted {
		atomic.AddInt64(&c.Stats.Rejects, 1)
		if d.fresh {
			c.spareStages(placement)
		}
		return Decision{}
	}
	atomic.AddInt64(&c.Stats.Accepts, 1)
	d.Accept = true
	d.Relocated = placement[0].Proc != t.Subtasks[0].Processor
	d.Reserved = permanent
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
	out := make([]sched.PlacedStage, len(t.Subtasks))
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.cfg.LB {
	case StrategyNone:
		return homePlacement(out, t)
	case StrategyPerTask:
		if t.Kind == sched.Periodic && int(tr) < len(c.recs) {
			if r := c.recs[tr]; r != nil && r.placement != nil {
				return append(out[:0], r.placement...)
			}
		}
	}
	return c.balancedPlacement(t, out)
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
// number of contributions removed.
func (c *Controller) RemoveTask(tr sched.TaskRef) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ledger.RemoveTask(tr)
	atomic.AddInt64(&c.Stats.TaskRemovals, int64(n))
	c.dropRecord(tr)
	return n
}

// RehomeTask rebases a task incarnation whose stage processors or replicas
// changed under it (a failover re-homing a stage) as Reconfigure rebases
// every task when LB changes or AC leaves per-task: its permanent per-task
// reservation is withdrawn and its record — home placement, per-task
// placement and admission memory — is cleared, so its next arrival is
// placed and tested afresh on the new processors. In-flight jobs'
// contributions stay and age out by expiry. It returns the number of
// contributions released.
func (c *Controller) RehomeTask(tr sched.TaskRef) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	released := 0
	if int(tr) < len(c.recs) && c.recs[tr] != nil && c.recs[tr].resv > 0 {
		released = c.ledger.WithdrawKey(sched.JobKey{Task: tr, Job: c.recs[tr].resv - 1})
	}
	c.dropRecord(tr)
	atomic.AddInt64(&c.Stats.ReconfigReleased, int64(released))
	return released
}

// dropRecord forgets a task's record; its next arrival creates a new one.
// Caller holds mu.
func (c *Controller) dropRecord(tr sched.TaskRef) {
	if tr >= 0 && int(tr) < len(c.recs) {
		c.recs[tr] = nil
	}
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
