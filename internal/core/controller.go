package core

import (
	"fmt"
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
	// LB-none it aliases the controller's cached per-task home placement.
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
// Concurrency: Arrive, ExpireJob, IdleReset, and Location are safe to call
// from multiple goroutines. Every ledger operation takes the ledger's one
// mutex (test and commit are one critical section there); aperiodic
// arrivals take no other lock, and periodic-task flows also serialize on
// an internal mutex protecting the per-task decision memory. Reconfigure
// and RemoveTask mutate the strategy configuration and decision memory and
// must not run concurrently with arrivals — callers quiesce first (the live
// binding holds its reconfiguration write lock; the DES engine is
// single-threaded).
type Controller struct {
	cfg    Config
	ledger *sched.ShardedLedger

	// taskMu guards the per-task decision memory below. Every periodic-task
	// flow (per-task AC decisions, LB-per-task placement memoization) holds
	// it; aperiodic arrivals never touch these maps.
	taskMu sync.Mutex
	// admitted and rejected record the per-task AC decision for periodic
	// tasks: once admitted, jobs release without re-testing; once rejected,
	// the task is not re-tested (the test runs only "when a task first
	// arrives").
	admitted map[string]bool
	rejected map[string]bool
	// placements records the per-task LB assignment, fixed at first arrival
	// under LB-per-task.
	placements map[string][]sched.PlacedStage
	// reservations maps an admitted per-task periodic task to the job
	// reference holding its permanent ledger contribution.
	reservations map[string]sched.JobRef
	// homePlace caches each task's home placement (a pure function of the
	// task's subtasks) keyed by task ID, so LB-none decisions do not allocate
	// per arrival and need no lock. Cached slices are handed out read-only;
	// RemoveTask invalidates.
	homePlace sync.Map

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
		cfg:          cfg,
		ledger:       sched.NewShardedLedger(numProcs, 1),
		admitted:     make(map[string]bool),
		rejected:     make(map[string]bool),
		placements:   make(map[string][]sched.PlacedStage),
		reservations: make(map[string]sched.JobRef),
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
	if c.cfg.AC == StrategyPerTask && cfg.AC != StrategyPerTask {
		// Withdraw in sorted task order so the ledger's floating-point
		// subtraction sequence is reproducible run to run.
		tasks := make([]string, 0, len(c.reservations))
		for task := range c.reservations {
			tasks = append(tasks, task)
		}
		sort.Strings(tasks)
		for _, task := range tasks {
			released += c.ledger.WithdrawJob(c.reservations[task])
			delete(c.reservations, task)
		}
		clear(c.admitted)
		clear(c.rejected)
	}
	if c.cfg.LB != cfg.LB {
		clear(c.placements)
	}
	c.cfg = cfg
	atomic.AddInt64(&c.Stats.Reconfigs, 1)
	atomic.AddInt64(&c.Stats.ReconfigReleased, int64(released))
	return released, nil
}

// Ledger exposes the synthetic-utilization ledger for instrumentation and
// the idle-resetting path.
func (c *Controller) Ledger() *sched.ShardedLedger { return c.ledger }

// Reservations snapshots the permanent per-task reservation references
// (AC-per-task only), sorted by task: the ledger jobs a strategy swap away
// from per-task admission control will withdraw. The live AC's replication
// stream uses it to mirror exactly those withdrawals on the warm standby.
func (c *Controller) Reservations() []sched.JobRef {
	c.taskMu.Lock()
	defer c.taskMu.Unlock()
	refs := make([]sched.JobRef, 0, len(c.reservations))
	for _, ref := range c.reservations {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Task < refs[j].Task })
	return refs
}

// homePlacement places every stage on its home processor.
func homePlacement(t *sched.Task) []sched.PlacedStage {
	out := make([]sched.PlacedStage, len(t.Subtasks))
	for i, st := range t.Subtasks {
		out[i] = sched.PlacedStage{Stage: i, Proc: st.Processor, Util: t.StageUtil(i)}
	}
	return out
}

// cachedHome returns the task's home placement from the per-task cache,
// computing it on first use. The returned slice is shared and read-only.
func (c *Controller) cachedHome(t *sched.Task) []sched.PlacedStage {
	if p, ok := c.homePlace.Load(t.ID); ok {
		return p.([]sched.PlacedStage)
	}
	p, _ := c.homePlace.LoadOrStore(t.ID, homePlacement(t))
	return p.([]sched.PlacedStage)
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
func (c *Controller) placeFor(t *sched.Task, job int64) []sched.PlacedStage {
	switch c.cfg.LB {
	case StrategyNone:
		return c.cachedHome(t)
	case StrategyPerTask:
		// Periodic tasks are assigned once, at first arrival; every
		// aperiodic arrival is an independent task with a single release and
		// is assigned at that arrival.
		if t.Kind == sched.Periodic {
			if p, ok := c.placements[t.ID]; ok {
				return clonePlacement(p)
			}
			p := c.balancedPlacement(t)
			c.placements[t.ID] = clonePlacement(p)
			return p
		}
		return c.balancedPlacement(t)
	case StrategyPerJob:
		return c.balancedPlacement(t)
	default:
		return c.cachedHome(t)
	}
}

func clonePlacement(p []sched.PlacedStage) []sched.PlacedStage {
	return append([]sched.PlacedStage(nil), p...)
}

// Arrive processes a "Task Arrive" event for job number job of task t at
// virtual time now, and returns the admission decision. For accepted jobs
// whose contributions expire (everything except per-task periodic
// reservations), the caller must arrange to call ExpireJob at now +
// t.Deadline.
func (c *Controller) Arrive(t *sched.Task, job int64, now time.Duration) Decision {
	if t.Kind == sched.Aperiodic {
		// Every aperiodic arrival is an independent task with one release:
		// it is tested regardless of the AC strategy, and it touches no
		// per-task decision memory, so it proceeds without taskMu.
		return c.testAndAdmit(t, sched.JobRef{Task: t.ID, Job: job}, now, false)
	}

	c.taskMu.Lock()
	defer c.taskMu.Unlock()
	switch c.cfg.AC {
	case StrategyPerJob:
		return c.testAndAdmit(t, sched.JobRef{Task: t.ID, Job: job}, now, false)
	case StrategyPerTask:
		return c.arrivePerTask(t, job, now)
	default:
		return Decision{}
	}
}

// arrivePerTask handles periodic arrivals under per-task admission control.
// Caller holds taskMu.
func (c *Controller) arrivePerTask(t *sched.Task, job int64, now time.Duration) Decision {
	if c.rejected[t.ID] {
		atomic.AddInt64(&c.Stats.Rejects, 1)
		return Decision{}
	}
	if !c.admitted[t.ID] {
		// First arrival: test once and reserve the task's synthetic
		// utilization for its lifetime (permanent contribution under the
		// first arrival's job reference).
		ref := sched.JobRef{Task: t.ID, Job: job}
		d := c.testAndAdmit(t, ref, now, true)
		if d.Accept {
			c.admitted[t.ID] = true
			c.reservations[t.ID] = ref
		} else {
			c.rejected[t.ID] = true
		}
		return d
	}

	// Subsequent jobs of an admitted task release without re-testing. Under
	// LB-per-job the assignment plan may still change: the reservation
	// follows the job to the new placement.
	placement := c.placeFor(t, job)
	if c.cfg.LB == StrategyPerJob {
		if err := c.ledger.Relocate(c.reservations[t.ID], placement); err != nil {
			// The reservation is always present for admitted tasks; an error
			// here is a programming bug worth surfacing loudly in tests.
			panic(fmt.Sprintf("core: relocate reservation for admitted task %s: %v", t.ID, err))
		}
	} else if p, ok := c.placements[t.ID]; ok {
		placement = clonePlacement(p)
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
func (c *Controller) testAndAdmit(t *sched.Task, ref sched.JobRef, now time.Duration, permanent bool) Decision {
	var t0 time.Time
	if c.timing != nil {
		t0 = time.Now()
	}
	placement := c.placeFor(t, ref.Job)
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
	admitted, _ := c.ledger.TestAndAdd(ref, t.Kind, placement, permanent, expiry)
	if c.timing != nil {
		c.timing.Test.Add(time.Since(t1))
	}
	if !admitted {
		atomic.AddInt64(&c.Stats.Rejects, 1)
		return Decision{Tested: true}
	}
	// Remember the placement for LB-per-task reuse by later jobs.
	if c.cfg.LB == StrategyPerTask && t.Kind == sched.Periodic {
		c.placements[t.ID] = clonePlacement(placement)
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
// it computes the placement the load balancer would propose for the given
// arrival without mutating any per-task assignment memory. The admission
// path itself uses the internal (memoizing) placement.
func (c *Controller) Location(t *sched.Task, job int64) []sched.PlacedStage {
	switch c.cfg.LB {
	case StrategyNone:
		return homePlacement(t)
	case StrategyPerTask:
		if t.Kind == sched.Periodic {
			c.taskMu.Lock()
			p, ok := c.placements[t.ID]
			if ok {
				p = clonePlacement(p)
			}
			c.taskMu.Unlock()
			if ok {
				return p
			}
		}
		return c.balancedPlacement(t)
	case StrategyPerJob:
		return c.balancedPlacement(t)
	default:
		return homePlacement(t)
	}
}

// ExpireJob removes the remaining contributions of a job whose absolute
// deadline passed. Per-task reservations are unaffected. It returns the
// number of contributions removed (zero for jobs already fully reset or
// unknown), so callers can account expiry work without rescanning.
func (c *Controller) ExpireJob(ref sched.JobRef) int {
	n := c.ledger.ExpireJob(ref)
	atomic.AddInt64(&c.Stats.Expiries, int64(n))
	return n
}

// RemoveTask withdraws a task from the system entirely: its remaining ledger
// contributions (including a permanent per-task reservation) are released
// through the ledger's task index, and the controller's per-task decision
// memory is cleared so a task re-registered under the same name is treated
// as new. It returns the number of contributions removed. The caller must
// quiesce arrivals first (see the Controller comment).
func (c *Controller) RemoveTask(task string) int {
	n := c.ledger.RemoveTask(task)
	atomic.AddInt64(&c.Stats.TaskRemovals, int64(n))
	c.taskMu.Lock()
	delete(c.admitted, task)
	delete(c.rejected, task)
	delete(c.placements, task)
	delete(c.reservations, task)
	c.taskMu.Unlock()
	c.homePlace.Delete(task)
	return n
}

// IdleReset processes an "Idle Resetting" event: the reported subjobs are
// marked complete and their contributions removed per the resetting rule. It
// returns the number of contributions actually removed.
func (c *Controller) IdleReset(reports []sched.EntryRef) int {
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
