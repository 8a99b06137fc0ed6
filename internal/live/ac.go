package live

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccm"
	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

// Attribute names shared with the deployment plans. AC_Strategy, IR_Strategy
// and LB_Strategy take the paper's N/T/J abbreviations.
const (
	AttrACStrategy = "AC_Strategy"
	AttrIRStrategy = "IR_Strategy"
	AttrLBStrategy = "LB_Strategy"
	AttrProcessors = "Processors"
	AttrWorkload   = "Workload"
	// AttrTaskRefs travels with every Workload attribute: the deployment's
	// task refs (ParseTaskRefs). The configuration engine hands each task a
	// ref once, so a task removed and added again under its old ID gets a
	// new one, and nothing addressed to the old incarnation reaches it.
	AttrTaskRefs  = "TaskRefs"
	AttrProcessor = "Processor"
	// AttrEpoch carries the reconfiguration epoch stamped by the
	// coordinator into every Reconfigure attribute set: components adopt it
	// so stale cross-epoch decisions are recognizable.
	AttrEpoch = "Epoch"
)

// ReconfigServantKey is the ORB object key of the admission controller's
// reconfiguration coordination facet (Quiesce / Resume / Epoch / Config).
const ReconfigServantKey = "reconfig"

// AdmissionController is the live AC component (paper Section 5): it
// consumes "Task Arrive" events from task effectors and "Idle Resetting"
// events from idle resetters, runs the load balancer's Location computation
// and the AUB admission test through the embedded policy controller, and
// publishes "Accept" events. One instance is deployed on the central task
// manager node.
//
// Concurrency: decisions serialize on the ledger's one mutex, which makes
// the admission test and the commit one critical section. mu is a
// read-write reconfiguration lock: decision, expiry, and idle-reset paths
// hold it shared, while Configure / Quiesce / Reconfigure / Resume /
// Passivate hold it exclusively — a swap begins only after every in-flight
// decision drains, and no decision ever observes mixed strategy state.
type AdmissionController struct {
	mu     sync.RWMutex
	cfg    core.Config
	ctrl   *core.Controller
	tasks  map[sched.TaskRef]*sched.Task
	ch     *eventchan.Channel
	active bool
	closed bool

	// timerMu guards timers, the pending deadline-expiry timer of every
	// accepted job; decisions and firing timers hold mu only shared.
	timerMu sync.Mutex
	timers  map[sched.JobKey]*time.Timer

	// Reconfiguration state: while quiesced, TaskArrive events buffer in
	// deferred instead of being decided; Resume replays them under the
	// then-current (new) configuration. epoch stamps every Accept so task
	// effectors can drop stale cross-epoch per-task decisions. deferMu
	// orders concurrent appends from event-dispatch goroutines, which hold
	// mu only shared.
	epoch    int64
	quiesced bool
	deferMu  sync.Mutex
	deferred []TaskArrive

	// DecisionDelay measures operation time from TaskArrive receipt to
	// Accept push (manager-side total).
	DecisionDelay core.OpStats
	// ResetApply measures the manager-side time to apply one idle-resetting
	// report to the ledger (operation 8's AC half).
	ResetApply core.OpStats
}

// Compile-time interface checks: the strategy-bearing components are both
// installable units and live-reconfigurable ones.
var (
	_ ccm.Component      = (*AdmissionController)(nil)
	_ ccm.Reconfigurable = (*AdmissionController)(nil)
	_ ccm.Reconfigurable = (*TaskEffector)(nil)
	_ ccm.Reconfigurable = (*IdleResetter)(nil)
	_ ccm.Reconfigurable = (*LoadBalancer)(nil)
)

// NewAdmissionController returns an unconfigured AC component.
func NewAdmissionController() *AdmissionController {
	return &AdmissionController{timers: make(map[sched.JobKey]*time.Timer)}
}

// Configure parses the strategy tuple, processor count and workload. It is
// the one-shot pre-activation stage; live strategy changes go through
// Reconfigure.
func (ac *AdmissionController) Configure(attrs map[string]string) error {
	ac.mu.RLock()
	active := ac.active
	ac.mu.RUnlock()
	if active {
		return fmt.Errorf("%w: AC is activated; use Reconfigure", ErrAlreadyActive)
	}
	cfg, err := parseStrategies(attrs, core.Config{})
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidStrategy, err)
	}
	procs, err := attrInt(attrs, AttrProcessors)
	if err != nil {
		return err
	}
	index, err := ParseWorkload(attrs, true)
	if err != nil {
		return err
	}
	ctrl, err := core.NewController(cfg, procs)
	if err != nil {
		return err
	}
	ctrl.EnableTiming()
	// Publish under the lock the event handlers read through: ORB dispatch
	// goroutines carry no other happens-before edge to them.
	ac.mu.Lock()
	ac.cfg = cfg
	ac.ctrl = ctrl
	ac.tasks = index
	ac.mu.Unlock()
	return nil
}

// Controller exposes the embedded policy object (overhead harness and tests).
func (ac *AdmissionController) Controller() *core.Controller {
	ac.mu.RLock()
	defer ac.mu.RUnlock()
	return ac.ctrl
}

// Activate subscribes the component's event sinks and registers the
// reconfiguration coordination facet.
func (ac *AdmissionController) Activate(ctx *ccm.Context) error {
	ac.mu.Lock()
	if ac.ctrl == nil {
		ac.mu.Unlock()
		return fmt.Errorf("%w: AC activated before configuration", ErrNotConfigured)
	}
	ac.ch = ctx.Events
	ac.active = true
	ac.mu.Unlock()
	// Subscribe outside the lock (delivery holds the shard lock, then
	// handlers take ac.mu).
	ctx.Events.Subscribe(EvTaskArrive, ac.onTaskArrive)
	ctx.Events.Subscribe(EvIdleReset, ac.onIdleReset)
	ctx.ORB.RegisterServant(ReconfigServantKey, ac.reconfigServant)
	return nil
}

// Passivate stops the pending expiry timers.
func (ac *AdmissionController) Passivate() error {
	ac.mu.Lock()
	ac.closed = true
	ac.mu.Unlock()
	ac.timerMu.Lock()
	for _, tm := range ac.timers {
		tm.Stop()
	}
	clear(ac.timers)
	ac.timerMu.Unlock()
	return nil
}

// onTaskArrive handles one "Task Arrive" event: while the controller is
// quiesced for a reconfiguration the arrival is buffered (and decided under
// the new configuration at Resume); otherwise it is decided immediately.
func (ac *AdmissionController) onTaskArrive(ev eventchan.Event) {
	arr, err := DecodeTaskArrive(ev.Payload)
	if err != nil {
		return
	}
	ac.mu.RLock()
	if ac.closed {
		ac.mu.RUnlock()
		return
	}
	if ac.quiesced {
		// Append while still holding the read lock: Resume drains the buffer
		// under the write lock, so an arrival that saw quiesced==true cannot
		// slip in after the drain.
		ac.deferMu.Lock()
		ac.deferred = append(ac.deferred, arr)
		ac.deferMu.Unlock()
		ac.mu.RUnlock()
		return
	}
	defer ac.mu.RUnlock()
	ac.decideRLocked(arr)
}

// decideRLocked runs one arrival end to end: the controller's decide step,
// the expiry timer it asks for, and the epoch-stamped Accept push. A task
// that left the workload while its arrival was in flight is refused, so the
// effector holding the job settles it. Caller holds mu shared; concurrent
// decisions synchronize inside the ledger and on timerMu.
func (ac *AdmissionController) decideRLocked(arr TaskArrive) {
	start := time.Now()
	out := Accept{Task: arr.Task, Job: arr.Job, ArrivalNanos: arr.ArrivalNanos, Epoch: ac.epoch}
	if t, ok := ac.tasks[arr.Task]; ok {
		now := nowNanos()
		k := sched.JobKey{Task: arr.Task, Job: arr.Job}
		d, cache, expireAt := ac.ctrl.Decide(k, t, time.Duration(arr.ArrivalNanos), time.Duration(now))
		if expireAt > 0 {
			ac.timerMu.Lock()
			ac.timers[k] = time.AfterFunc(time.Duration(int64(expireAt)-now), func() { ac.expire(k) })
			ac.timerMu.Unlock()
		}
		out.Ok, out.Placement, out.PerTaskDecision = d.Accept, d.Placement, cache
	}
	ac.DecisionDelay.Add(time.Since(start))
	if ac.ch != nil {
		// Best effort: a dead effector node surfaces in its own metrics. Only
		// the arrival processor's effector holds the wait (homeOf).
		_ = ac.ch.PushTo(arr.Proc, eventchan.Event{Type: EvAccept, Payload: AppendAccept(nil, &out)})
	}
}

// Epoch returns the current reconfiguration epoch.
func (ac *AdmissionController) Epoch() int64 {
	ac.mu.RLock()
	defer ac.mu.RUnlock()
	return ac.epoch
}

// Quiesced reports whether admission is currently quiesced.
func (ac *AdmissionController) Quiesced() bool {
	ac.mu.RLock()
	defer ac.mu.RUnlock()
	return ac.quiesced
}

// Quiesce is phase one of the reconfiguration protocol: new TaskArrive
// events buffer instead of being decided, so the strategy objects can swap
// without a decision ever observing mixed state. Acquiring the write lock
// waits out every in-flight decision first. Accept events already pushed
// stay valid — they were decided wholly under the old configuration. It
// returns the epoch the upcoming swap will enter.
func (ac *AdmissionController) Quiesce() (int64, error) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if ac.ctrl == nil {
		return 0, fmt.Errorf("%w: AC quiesced before configuration", ErrNotConfigured)
	}
	if ac.quiesced {
		return 0, ErrQuiesced
	}
	ac.quiesced = true
	return ac.epoch + 1, nil
}

// Reconfigure is the component lifecycle's hot-swap stage: it installs a
// new strategy combination and/or task set on the running controller. The
// controller must be quiesced; the embedded policy object rebases its ledger
// and decision memory in place, so every in-flight job's contributions
// survive. Missing strategy attributes keep their current values; an Epoch
// attribute adopts the coordinator's epoch (otherwise the epoch increments
// locally).
//
// A Workload attribute swaps the admission task set (the open-world
// AddTasks/RemoveTasks delta): tasks joining the workload become admissible
// at their next arrival, and tasks leaving it have their remaining ledger
// contributions — including permanent per-task reservations — withdrawn
// through the controller's task index. Their pending expiry timers are left
// to fire: they name the departed ref, which holds nothing any more, and a
// task re-added under the same ID has a new one. Jobs of departed tasks that
// were already released keep executing; withdrawal only frees the synthetic
// utilization backing future admission decisions.
func (ac *AdmissionController) Reconfigure(attrs map[string]string) error {
	// Parse the new task set outside the lock; nothing mutates on error.
	newTasks, err := ParseWorkload(attrs, false)
	if err != nil {
		return err
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if ac.ctrl == nil {
		return fmt.Errorf("%w: AC reconfigured before configuration", ErrNotConfigured)
	}
	if !ac.quiesced {
		return ErrNotQuiesced
	}
	cfg, err := parseStrategies(attrs, ac.cfg)
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidStrategy, err)
	}
	if newTasks != nil {
		procs := ac.ctrl.Ledger().NumProcs()
		for _, t := range newTasks {
			for _, st := range t.Subtasks {
				for _, p := range st.Candidates() {
					if p >= procs {
						return fmt.Errorf("live: ac: task %s references processor %d but deployment has %d", t.ID, p, procs)
					}
				}
			}
		}
	}
	// Parse everything — including the epoch — before mutating: the
	// controller rebase below is irreversible, so an error return must
	// mean nothing changed.
	epoch := ac.epoch + 1
	if _, ok := attrs[AttrEpoch]; ok {
		var err error
		if epoch, err = attrInt64(attrs, AttrEpoch); err != nil {
			return err
		}
	}
	if _, err := ac.ctrl.Reconfigure(cfg); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidStrategy, err)
	}
	if newTasks != nil {
		for ref := range ac.tasks {
			if _, ok := newTasks[ref]; !ok {
				ac.ctrl.RemoveTask(ref)
			}
		}
		ac.tasks = newTasks
	}
	ac.cfg = cfg
	ac.epoch = epoch
	return nil
}

// Resume is phase two's tail: admission reopens and every arrival buffered
// during the quiesce is decided — in arrival order — under the new
// configuration. It returns the number of replayed arrivals.
func (ac *AdmissionController) Resume() (int, error) {
	ac.mu.Lock()
	if !ac.quiesced {
		ac.mu.Unlock()
		return 0, ErrNotQuiesced
	}
	ac.quiesced = false
	ac.deferMu.Lock()
	deferred := ac.deferred
	ac.deferred = nil
	ac.deferMu.Unlock()
	ac.mu.Unlock()
	ac.mu.RLock()
	defer ac.mu.RUnlock()
	if ac.closed {
		return 0, nil
	}
	for _, arr := range deferred {
		ac.decideRLocked(arr)
	}
	return len(deferred), nil
}

// reconfigServant exposes the coordination half of the protocol over the
// ORB, so deployment tools (the plan launcher's Execute, the rtmw-config
// reconfigure and health subcommands) can drive a swap on a running node.
// Quiesce, Resume and Epoch answer with a decimal integer, Config with the
// AC_IR_LB tuple.
func (ac *AdmissionController) reconfigServant(op string, arg []byte) ([]byte, error) {
	switch op {
	case "Quiesce":
		epoch, err := ac.Quiesce()
		if err != nil {
			return nil, err
		}
		return strconv.AppendInt(nil, epoch, 10), nil
	case "Resume":
		n, err := ac.Resume()
		if err != nil {
			return nil, err
		}
		return strconv.AppendInt(nil, int64(n), 10), nil
	case "Epoch":
		return strconv.AppendInt(nil, ac.Epoch(), 10), nil
	case "Config":
		ac.mu.RLock()
		cfg := ac.cfg.String()
		ac.mu.RUnlock()
		return []byte(cfg), nil
	default:
		return nil, fmt.Errorf("live: reconfig: unknown operation %q", op)
	}
}

// location answers the load balancer's Location facet from the task set the
// controller decides with: the placement its balancer would produce for the
// task bound to the ID, as an admitted, job-less Accept, so a client reads
// it with DecodeAccept.
func (ac *AdmissionController) location(taskID string) ([]byte, error) {
	ac.mu.RLock()
	defer ac.mu.RUnlock()
	if ac.ctrl == nil {
		return nil, fmt.Errorf("%w: lb: admission controller not configured", ErrNotConfigured)
	}
	for ref, t := range ac.tasks {
		if t.ID == taskID {
			return locationReply(ref, ac.ctrl.Location(ref, t)), nil
		}
	}
	return nil, fmt.Errorf("live: lb: unknown task %q", taskID)
}

// locationReply encodes a Location answer.
func locationReply(task sched.TaskRef, placement []sched.PlacedStage) []byte {
	return AppendAccept(nil, &Accept{Task: task, Job: -1, Ok: true, Placement: placement})
}

// expire removes a job's contributions at its absolute deadline.
func (ac *AdmissionController) expire(k sched.JobKey) {
	ac.mu.RLock()
	defer ac.mu.RUnlock()
	if ac.closed {
		return
	}
	ac.timerMu.Lock()
	delete(ac.timers, k)
	ac.timerMu.Unlock()
	ac.ctrl.ExpireKey(k)
}

// onIdleReset applies an "Idle Resetting" report, accounting how many
// contributions the ledger actually released (entries may already be gone
// through deadline expiry, so the applied count is the ground truth the
// experiments report).
func (ac *AdmissionController) onIdleReset(ev eventchan.Event) {
	rep, err := DecodeIdleReset(ev.Payload)
	if err != nil {
		return
	}
	ac.mu.RLock()
	if ac.closed {
		ac.mu.RUnlock()
		return
	}
	// Time only the ledger apply, not decode or lock acquisition.
	start := time.Now()
	ac.ctrl.IdleResetKeys(rep.Entries)
	elapsed := time.Since(start)
	ac.mu.RUnlock()
	ac.ResetApply.Add(elapsed)
}

// ResetsApplied returns the number of ledger contributions removed through
// idle-resetting reports so far (the controller's IdleResets counter).
func (ac *AdmissionController) ResetsApplied() int64 {
	ac.mu.RLock()
	defer ac.mu.RUnlock()
	if ac.ctrl == nil {
		return 0
	}
	return atomic.LoadInt64(&ac.ctrl.Stats.IdleResets)
}

// AuditLedger runs the admission ledger's invariant audit. The audit holds
// the ledger's mutex, so it is safe to run while decisions and expiry timers
// are still live; the shared component lock only pins the controller against
// reconfiguration.
func (ac *AdmissionController) AuditLedger() error {
	ac.mu.RLock()
	defer ac.mu.RUnlock()
	if ac.ctrl == nil {
		return nil
	}
	return ac.ctrl.Ledger().CheckInvariants()
}

// ActiveLedgerJobs snapshots the ledger's active job keys.
func (ac *AdmissionController) ActiveLedgerJobs() []sched.JobKey {
	ac.mu.RLock()
	defer ac.mu.RUnlock()
	if ac.ctrl == nil {
		return nil
	}
	return ac.ctrl.Ledger().ActiveJobs()
}

// parseStrategies reads the strategy attributes present in attrs over cfg.
func parseStrategies(attrs map[string]string, cfg core.Config) (core.Config, error) {
	for _, a := range [...]struct {
		key string
		dst *core.Strategy
	}{{AttrACStrategy, &cfg.AC}, {AttrIRStrategy, &cfg.IR}, {AttrLBStrategy, &cfg.LB}} {
		if _, ok := attrs[a.key]; ok {
			s, err := parseStrategyAttr(attrs, a.key)
			if err != nil {
				return cfg, err
			}
			*a.dst = s
		}
	}
	return cfg, nil
}

// parseStrategyAttr reads one N/T/J attribute; unparseable values wrap
// ErrInvalidStrategy.
func parseStrategyAttr(attrs map[string]string, key string) (core.Strategy, error) {
	s, err := attrString(attrs, key)
	if err != nil {
		return 0, err
	}
	st, err := core.ParseStrategy(s)
	if err != nil {
		return 0, fmt.Errorf("%w: attribute %q: %v", ErrInvalidStrategy, key, err)
	}
	return st, nil
}

// LoadBalancer is the live LB component. The placement heuristic itself
// runs inside the admission controller's policy object (the two components
// are co-deployed on the task manager, as in the paper, and their
// interaction is the Location call); this component exposes the "Location"
// facet as an ORB servant so external tools can ask for the plan the
// balancer would produce, and carries the LB_Strategy attribute through the
// deployment path.
type LoadBalancer struct {
	mu         sync.Mutex
	strategy   core.Strategy
	acInstance string
	ac         *AdmissionController
}

var _ ccm.Component = (*LoadBalancer)(nil)

// AttrACInstance names the admission controller instance the balancer
// serves; it defaults to "Central-AC".
const AttrACInstance = "AC_Instance"

// NewLoadBalancer returns an unconfigured LB component; the AC instance is
// resolved from the container at activation.
func NewLoadBalancer() *LoadBalancer {
	return &LoadBalancer{acInstance: "Central-AC"}
}

// Configure parses the LB strategy. The plan hands the balancer the workload
// too, but the Location facet reads the task set the admission controller
// decides with.
func (lb *LoadBalancer) Configure(attrs map[string]string) error {
	strategy, err := parseStrategyAttr(attrs, AttrLBStrategy)
	if err != nil {
		return err
	}
	lb.mu.Lock()
	lb.strategy = strategy
	if id, ok := attrs[AttrACInstance]; ok && id != "" {
		lb.acInstance = id
	}
	lb.mu.Unlock()
	return nil
}

// Activate resolves the co-deployed admission controller and registers the
// Location facet.
func (lb *LoadBalancer) Activate(ctx *ccm.Context) error {
	container, _ := ctx.Service(SvcContainer).(*ccm.Container)
	if container == nil {
		return errors.New("live: LB requires the container service")
	}
	lb.mu.Lock()
	acInstance := lb.acInstance
	lb.mu.Unlock()
	comp, ok := container.Lookup(acInstance)
	if !ok {
		return fmt.Errorf("live: LB: admission controller instance %q not installed", acInstance)
	}
	ac, ok := comp.(*AdmissionController)
	if !ok {
		return fmt.Errorf("live: LB: instance %q is not an admission controller", acInstance)
	}
	lb.mu.Lock()
	lb.ac = ac
	lb.mu.Unlock()
	ctx.ORB.RegisterServant("lb", lb.servant)
	return nil
}

// Passivate is a no-op; the ORB teardown retires the servant.
func (lb *LoadBalancer) Passivate() error { return nil }

// Reconfigure adopts a new LB strategy, if the attributes carry one. The
// placement heuristic itself lives in the admission controller's policy
// object (swapped by the AC's Reconfigure); this keeps the component's
// advertised strategy in sync for diagnostics.
func (lb *LoadBalancer) Reconfigure(attrs map[string]string) error {
	if _, ok := attrs[AttrLBStrategy]; !ok {
		return nil
	}
	strategy, err := parseStrategyAttr(attrs, AttrLBStrategy)
	if err != nil {
		return err
	}
	lb.mu.Lock()
	lb.strategy = strategy
	lb.mu.Unlock()
	return nil
}

// Strategy returns the configured LB strategy.
func (lb *LoadBalancer) Strategy() core.Strategy {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.strategy
}

// servant answers Location with the placement the balancer would produce
// for the task its argument names.
func (lb *LoadBalancer) servant(op string, arg []byte) ([]byte, error) {
	if op != "Location" {
		return nil, fmt.Errorf("live: lb: unknown operation %q", op)
	}
	lb.mu.Lock()
	ac := lb.ac
	lb.mu.Unlock()
	if ac == nil {
		return nil, errors.New("live: lb: not activated")
	}
	return ac.location(string(arg))
}
