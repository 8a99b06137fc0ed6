// Package cluster assembles a complete live middleware deployment in one
// process: a task manager node and N application nodes on TCP loopback,
// deployed through the real pipeline — configuration engine → XML plan →
// plan launcher → per-node NodeManager servants → container activation —
// exactly the Figure 4 flow, with every event crossing real sockets.
//
// It is the substrate for the Section 7.3 overhead measurements, the
// runnable examples, and the end-to-end integration tests.
package cluster

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccm"
	"repro/internal/configengine"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/eventchan"
	"repro/internal/live"
	"repro/internal/orb"
	"repro/internal/sched"
	"repro/internal/spec"
)

// Options configures a cluster start.
type Options struct {
	// Workload is the workload specification; Workload.Processors
	// application nodes are started.
	Workload *spec.Workload
	// Config is the AC/IR/LB strategy combination.
	Config core.Config
	// ExecScale compresses subtask execution times (default 1.0). Scale the
	// workload itself (spec durations) to compress periods and deadlines
	// consistently.
	ExecScale float64
	// Seed drives the arrival generators.
	Seed int64
}

// Cluster is a running live deployment. It implements the unified Binding
// surface (Submit / Snapshot / Reconfigure / Stop) shared with the
// simulation binding, so tools and experiments drive either through one
// API.
type Cluster struct {
	// Manager is the task manager node; Apps are the application nodes in
	// processor order.
	Manager *live.Node
	Apps    []*live.Node
	// Plan is the executed deployment plan. Reconfigure folds its deltas
	// back in, so the plan always describes the running configuration.
	Plan *deploy.Plan

	done     completions
	drivers  []*live.Driver
	launcher *orb.ORB
	seed     int64

	// registry and execScale are retained from Start so RecoverNode can
	// assemble a replacement node identically.
	registry  *ccm.Registry
	execScale float64

	// detector and tracker are the failure plane (failover.go).
	detector *detector
	tracker  *tracker

	// failMu guards the node-liveness state. It is a leaf lock: Submit
	// consults it without cfgMu, so a transaction holding cfgMu across its
	// network phase never blocks the submission path.
	failMu     sync.Mutex
	deadProcs  map[int]bool
	failedOver map[int]bool
	// lostStats banks dead effectors' counters when RecoverNode replaces
	// their node, keeping the binding counters monotonic across the swap.
	lostStats map[int]live.TEStats

	// cfgMu serializes the lifecycle transactions (Reconfigure, AddTasks,
	// RemoveTasks, Failover), RecoverNode and Close; the AC additionally
	// refuses overlapping quiesces. life is the configuration they leave
	// running, which only transact and Close replace, under cfgMu, so its
	// readers never wait on a transaction's network phase.
	cfgMu sync.Mutex
	life  atomic.Pointer[lifecycle]

	// taskMu guards the deployed task set, which the open-world lifecycle
	// calls swap while submissions read it. table is the plan's task
	// identities: every incarnation the deployment ever held, by ref, so a
	// draining job of a departed task still finds its deadline and name, and
	// the current name bindings.
	taskMu sync.RWMutex
	tasks  []*sched.Task
	table  *sched.TaskTable

	// hub fans lifecycle events out to Watch streams.
	hub core.WatchHub
}

// lifecycle is one immutable view of the running deployment: the active
// strategy combination, the epoch the last transaction entered, and whether
// the cluster is closed.
type lifecycle struct {
	cfg     core.Config
	epoch   int64
	stopped bool
}

// Start builds, deploys and activates a cluster. Callers must Close it.
func Start(opts Options) (*Cluster, error) {
	if opts.Workload == nil {
		return nil, fmt.Errorf("cluster: nil workload")
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.ExecScale == 0 {
		opts.ExecScale = 1
	}
	registry := ccm.NewRegistry()
	if err := live.Register(registry); err != nil {
		return nil, err
	}

	c := &Cluster{
		seed:      opts.Seed,
		registry:  registry,
		execScale: opts.ExecScale,
		table:     new(sched.TaskTable),
	}
	c.life.Store(&lifecycle{cfg: opts.Config})
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}

	var err error
	c.Manager, err = live.NewNode("manager", -1, "127.0.0.1:0", opts.ExecScale)
	if err != nil {
		return fail(err)
	}
	deploy.NewNodeManager(c.Manager.ORB, registry, c.Manager.Container, c.Manager.Channel)
	managerDecl := deploy.Node{Name: "manager", Address: c.Manager.Addr, Processor: -1}

	appDecls := make([]deploy.Node, opts.Workload.Processors)
	for i := 0; i < opts.Workload.Processors; i++ {
		name := fmt.Sprintf("app%d", i)
		node, err := live.NewNode(name, i, "127.0.0.1:0", opts.ExecScale)
		if err != nil {
			return fail(err)
		}
		c.Apps = append(c.Apps, node)
		deploy.NewNodeManager(node.ORB, registry, node.Container, node.Channel)
		appDecls[i] = deploy.Node{Name: name, Address: node.Addr, Processor: i}
	}

	c.Plan, err = configengine.GeneratePlan("cluster", opts.Workload, opts.Config, managerDecl, appDecls)
	if err != nil {
		return fail(err)
	}
	if err := c.refreshTasks(); err != nil {
		return fail(err)
	}

	// The plan launcher runs as its own deployment tool with a client-only
	// ORB, as DAnCE's Plan Launcher does.
	c.launcher = orb.New("plan-launcher")
	d, err := c.Plan.Deployment()
	if err != nil {
		return fail(err)
	}
	if _, err := deploy.NewLauncher(c.launcher).Execute(context.Background(), d); err != nil {
		return fail(err)
	}

	// Observation and failure planes: every application node's local job
	// hops feed the watch hub, the completion accounting and the dead-letter
	// tracker; rejections are observed on the manager's channel, where the
	// detector also tails the heartbeat stream.
	c.tracker = newTracker(c)
	for _, app := range c.Apps {
		c.observe(app)
	}
	c.Manager.Channel.Subscribe(live.EvAccept, c.tapAccept(c.Manager.Name))
	c.detector = newDetector(c)
	c.detector.start()
	return c, nil
}

// Tasks returns the deployed scheduling-model tasks.
func (c *Cluster) Tasks() []*sched.Task {
	c.taskMu.RLock()
	defer c.taskMu.RUnlock()
	return c.tasks
}

// setTasks swaps the deployed task set, each task bound to its ref
// (live.ParseWorkload); Tasks lists them in ref order. Departed tasks keep
// their refs' entries, so draining completions still account deadline
// misses.
func (c *Cluster) setTasks(byRef map[sched.TaskRef]*sched.Task) {
	refs := slices.Sorted(maps.Keys(byRef))
	tasks := make([]*sched.Task, len(refs))
	c.taskMu.Lock()
	defer c.taskMu.Unlock()
	for _, t := range c.tasks {
		c.table.Drop(t.ID)
	}
	for i, ref := range refs {
		tasks[i] = byRef[ref]
		c.table.Bind(ref, tasks[i])
	}
	c.tasks = tasks
}

// taskName returns the ID of the task holding ref, for watch events.
func (c *Cluster) taskName(ref sched.TaskRef) string {
	if t := c.table.Task(ref); t != nil {
		return t.ID
	}
	return ""
}

// Config returns the currently active strategy combination.
func (c *Cluster) Config() core.Config { return c.life.Load().cfg }

// Submit injects one job arrival for the named task at its home (first
// stage) processor's task effector — the live half of the unified Binding
// surface. The returned Admission resolves synchronously for per-task
// cached decisions and is Pending otherwise; the terminal outcome surfaces
// on the binding's watch stream. During any transaction, a failover
// included, the arrival waits in the admission controller's quiesce buffer;
// a submission homed on a dead processor fails with ErrNodeDown until a
// failover re-homes its task.
func (c *Cluster) Submit(taskID string) (core.Admission, error) {
	proc, err := c.homeProc(taskID)
	if err != nil {
		return core.Admission{Task: taskID, Job: -1}, err
	}
	if c.isDead(proc) {
		return core.Admission{Task: taskID, Job: -1},
			fmt.Errorf("cluster: submit %q: processor %d: %w", taskID, proc, live.ErrNodeDown)
	}
	te, err := c.TE(proc)
	if err != nil {
		return core.Admission{Task: taskID, Job: -1}, err
	}
	return te.SubmitJob(taskID)
}

// SubmitBatch injects one arrival per named task, in order, through Submit.
// IDs are validated up front; an unknown task fails the whole batch before
// any arrival is injected. If an arrival nevertheless fails mid-flight (its
// task was removed concurrently, its home node died), the returned slice is
// still complete and faithful: injected arrivals keep their admissions, the
// failed entry resolves as Rejected with the error in Reason, and the first
// error is returned alongside.
func (c *Cluster) SubmitBatch(taskIDs []string) ([]core.Admission, error) {
	for _, id := range taskIDs {
		if _, err := c.homeProc(id); err != nil {
			return nil, err
		}
	}
	out := make([]core.Admission, len(taskIDs))
	var firstErr error
	for i, id := range taskIDs {
		adm, err := c.Submit(id)
		if err != nil {
			if adm.Outcome != core.AdmissionRejected {
				adm.Outcome = core.AdmissionRejected
				adm.Reason = err.Error()
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		out[i] = adm
	}
	return out, firstErr
}

// homeProc resolves a task's home (first stage) processor.
func (c *Cluster) homeProc(taskID string) (int, error) {
	c.taskMu.RLock()
	defer c.taskMu.RUnlock()
	if ref, ok := c.table.Lookup(taskID); ok {
		return c.table.Task(ref).Subtasks[0].Processor, nil
	}
	return 0, fmt.Errorf("cluster: %w: %q", core.ErrUnknownTask, taskID)
}

// AddTasks registers new tasks on the running deployment through the
// configuration engine's task-set delta: the plan launcher quiesces
// admission, installs the added tasks' subtask components on the running
// nodes, wires the new federation routes, pushes the union workload — with
// EDMS priorities re-assigned over it — to the admission controller and
// every task effector, and resumes. Arrivals buffered during
// the quiesce replay against the enlarged task set.
func (c *Cluster) AddTasks(tasks []*sched.Task) error {
	c.cfgMu.Lock()
	defer c.cfgMu.Unlock()
	_, err := c.transact("add tasks", true, c.Config(), func() (*deploy.Delta, error) {
		return configengine.AddTasksDelta(c.Plan, tasks)
	})
	if err != nil {
		return err
	}
	if c.hub.Active() {
		for _, t := range tasks {
			c.emit(core.WatchEvent{Kind: core.WatchTaskAdded, Task: t.ID, Job: -1})
		}
	}
	return nil
}

// RemoveTasks withdraws tasks from the running deployment: under the same
// quiesce protocol, the admission controller releases the departed tasks'
// remaining ledger contributions (including per-task reservations) and every
// task effector drops their cached decisions. A job still awaiting its
// decision is refused by the admission controller and skipped by its
// effector. Jobs already released keep executing on the still-installed
// subtask components — no admitted job is lost — and those instances go
// inert once drained.
func (c *Cluster) RemoveTasks(ids []string) error {
	c.cfgMu.Lock()
	defer c.cfgMu.Unlock()
	_, err := c.transact("remove tasks", true, c.Config(), func() (*deploy.Delta, error) {
		return configengine.RemoveTasksDelta(c.Plan, ids)
	})
	if err != nil {
		return err
	}
	if c.hub.Active() {
		for _, id := range ids {
			c.emit(core.WatchEvent{Kind: core.WatchTaskRemoved, Task: id, Job: -1})
		}
	}
	return nil
}

// transact runs one lifecycle transaction: it refuses on a stopped cluster
// and, when gated, while any node is down (ErrNodeDown: the delta would RPC
// it; only the failover runs ungated); then it builds the delta, executes it
// against the live nodes, folds it into the plan, publishes the target
// combination with the epoch it entered, and re-reads the deployed task set.
// Reconfigure, AddTasks, RemoveTasks and Failover each supply only their
// delta and target. Callers hold cfgMu.
func (c *Cluster) transact(op string, gated bool, to core.Config, delta func() (*deploy.Delta, error)) (*deploy.ReconfigOutcome, error) {
	if c.life.Load().stopped {
		return nil, fmt.Errorf("cluster: %s: %w", op, core.ErrStopped)
	}
	if gated {
		c.failMu.Lock()
		dead := slices.Sorted(maps.Keys(c.deadProcs))
		c.failMu.Unlock()
		if len(dead) > 0 {
			return nil, fmt.Errorf("cluster: %s: processor %d: %w", op, dead[0], live.ErrNodeDown)
		}
	}
	d, err := delta()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	outcome, err := deploy.NewLauncher(c.launcher).Execute(ctx, d)
	if err != nil {
		return nil, err
	}
	d.Apply(c.Plan, outcome.Epoch)
	c.life.Store(&lifecycle{cfg: to, epoch: outcome.Epoch})
	return outcome, c.refreshTasks()
}

// refreshTasks re-reads the deployed task set (with its re-assigned EDMS
// priorities) and its refs from the plan's admission controller instance.
// Callers hold cfgMu (or own the cluster, at Start).
func (c *Cluster) refreshTasks() error {
	for _, inst := range c.Plan.Instances {
		if inst.Implementation != live.ImplAdmissionController {
			continue
		}
		byRef, err := live.ParseWorkload(inst.Attrs(), true)
		if err != nil {
			return fmt.Errorf("cluster: plan admission controller: %w", err)
		}
		c.setTasks(byRef)
		return nil
	}
	return fmt.Errorf("cluster: plan has no admission controller instance")
}

// Watch opens an ordered stream of lifecycle events observed at the binding:
// admissions (job releases on the application nodes), rejections (admission
// controller decisions), completions and deadline misses, task-set changes
// and reconfigurations. Per-stream delivery is in strictly increasing Seq
// order; a consumer that falls behind loses newest events (counted) rather
// than backpressuring the event plane.
func (c *Cluster) Watch(opts core.WatchOptions) (*core.WatchStream, error) {
	if c.life.Load().stopped {
		return nil, fmt.Errorf("cluster: watch: %w", core.ErrStopped)
	}
	return c.hub.Subscribe(opts), nil
}

// emit stamps one watch event with the time and the running combination
// (and epoch, unless the event carries its own) and publishes it. The taps
// call it from event-plane pusher goroutines, so it reads the lifecycle
// value and never waits on a transaction.
func (c *Cluster) emit(ev core.WatchEvent) {
	life := c.life.Load()
	ev.At = time.Duration(time.Now().UnixNano())
	ev.Config = life.cfg
	if ev.Epoch == 0 {
		ev.Epoch = life.epoch
	}
	c.hub.Emit(ev)
}

// tapAccept observes rejections: Accept decisions on the manager's channel,
// as soon as the AC makes them, and the effectors' Skip events for the jobs
// no Accept named. Accepted decisions surface as releases on the
// application nodes.
func (c *Cluster) tapAccept(node string) eventchan.Handler {
	return func(ev eventchan.Event) {
		if !c.hub.Active() || ev.Source != node {
			return
		}
		dec, err := live.DecodeAccept(ev.Payload)
		if err != nil || dec.Ok {
			return
		}
		c.emit(core.WatchEvent{
			Kind: core.WatchRejected, Task: c.taskName(dec.Task), Job: dec.Job,
			Epoch: dec.Epoch,
		})
	}
}

// observe attaches the cluster's observers to one application node's
// channel — at Start, and again when RecoverNode replaces the node. Only
// locally pushed events count (ev.Source is the node): the federated copy of
// a relocated release or a trigger carries the origin's name, so each hop is
// seen exactly once. The watch emissions are inert until a Watch subscribes.
func (c *Cluster) observe(app *live.Node) {
	app.Channel.Subscribe(live.EvRelease, c.observeHop(app.Name, true))
	app.Channel.Subscribe(live.EvTrigger, c.observeHop(app.Name, false))
	app.Channel.Subscribe(live.EvDone, c.observeDone(app.Name))
	app.Channel.Subscribe(live.EvSkip, c.tapAccept(app.Name))
}

// observeHop is the one subscriber to a node's Release or Trigger events:
// one decode, then a release is announced as WatchAdmitted (while a Watch is
// open) and every hop is handed to the dead-letter tracker.
func (c *Cluster) observeHop(node string, release bool) eventchan.Handler {
	return func(ev eventchan.Event) {
		if ev.Source != node {
			return
		}
		trg, err := live.DecodeTrigger(ev.Payload)
		if err != nil {
			return
		}
		if release && c.hub.Active() {
			c.emit(core.WatchEvent{
				Kind: core.WatchAdmitted, Task: c.taskName(trg.Task), Job: trg.Job,
				Placement: trg.Placement,
			})
		}
		c.tracker.hop(trg)
	}
}

// completions is the cluster's job-completion accounting (see observeDone).
type completions struct {
	completed, missed, totalResp atomic.Int64
}

// Completed returns the number of completed jobs observed.
func (d *completions) Completed() int64 { return d.completed.Load() }

// Missed returns the number of completed jobs over their task's deadline
// (tasks added after Start included). Live response times carry real network
// and scheduling noise; the exact guarantees are checked on the simulation.
func (d *completions) Missed() int64 { return d.missed.Load() }

// MeanResponse returns the mean observed response time.
func (d *completions) MeanResponse() time.Duration {
	n := d.completed.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(d.totalResp.Load() / n)
}

// observeDone is the one subscriber to a node's Done events: one decode, then
// count it against the current deadline index, retire the tracker entry, emit.
func (c *Cluster) observeDone(node string) eventchan.Handler {
	return func(ev eventchan.Event) {
		if ev.Source != node {
			return
		}
		done, err := live.DecodeDone(ev.Payload)
		if err != nil {
			return
		}
		resp := time.Duration(done.DoneNanos - done.ArrivalNanos)
		t := c.table.Task(done.Task)
		missed := t != nil && resp > t.Deadline
		c.done.totalResp.Add(int64(resp))
		if missed {
			c.done.missed.Add(1)
		}
		c.done.completed.Add(1)
		c.tracker.retire(sched.JobKey{Task: done.Task, Job: done.Job})
		if !c.hub.Active() {
			return
		}
		out := core.WatchEvent{
			Kind: core.WatchCompleted, Task: c.taskName(done.Task), Job: done.Job,
			Response: resp,
		}
		c.emit(out)
		if missed {
			out.Kind = core.WatchDeadlineMiss
			c.emit(out)
		}
	}
}

// Snapshot aggregates the effectors' counters and the completion count with
// the active configuration and reconfiguration epoch.
func (c *Cluster) Snapshot() core.BindingSnapshot {
	life := c.life.Load()
	snap := core.BindingSnapshot{Config: life.cfg, Epoch: life.epoch}
	snap.Arrived, snap.Released, snap.Skipped, snap.Completed = c.counters()
	snap.InFlight = snap.Released - snap.Completed
	snap.WatchDropped = c.hub.Dropped()
	return snap
}

// counters sums the effector-side job counters and reads the completion
// count. A killed node's effector keeps answering from memory (its
// container retains instances past shutdown), and RecoverNode banks the dead
// effector's totals into lostStats before the replacement zeroes them, so
// the sums stay monotonic across node loss and recovery.
func (c *Cluster) counters() (arrived, released, skipped, completed int64) {
	for i := range c.Apps {
		te, err := c.TE(i)
		if err != nil {
			continue
		}
		s := te.StatsSnapshot()
		arrived += s.Arrived
		released += s.Released
		skipped += s.Skipped
	}
	c.failMu.Lock()
	for _, s := range c.lostStats {
		arrived += s.Arrived
		released += s.Released
		skipped += s.Skipped
	}
	c.failMu.Unlock()
	return arrived, released, skipped, c.done.Completed()
}

// Reconfigure swaps the cluster's AC/IR/LB strategy combination on the
// running deployment without dropping jobs: the configuration engine emits
// the delta (rejecting invalid targets before anything is touched), and the
// plan launcher executes the epoch-versioned two-phase transaction over the
// real ORB — quiesce admission on the manager, swap the strategy objects on
// every node through the component Reconfigure lifecycle stage, wire any
// new federation routes, resume and replay the arrivals buffered meanwhile.
// Jobs in flight keep executing on their old placements throughout; Accept
// decisions made before the quiesce stay valid and are recognizably stale
// (epoch-stamped) to the effector caches.
func (c *Cluster) Reconfigure(to core.Config) (*core.ReconfigReport, error) {
	c.cfgMu.Lock()
	defer c.cfgMu.Unlock()
	before, from := c.inFlight(), c.Config()
	outcome, err := c.transact("reconfigure", true, to, func() (*deploy.Delta, error) {
		return configengine.ReconfigDelta(c.Plan, to)
	})
	if err != nil {
		return nil, err
	}
	if c.hub.Active() {
		c.emit(core.WatchEvent{Kind: core.WatchReconfigured, Task: "", Job: -1})
	}
	return &core.ReconfigReport{
		From:           from,
		To:             to,
		Epoch:          outcome.Epoch,
		Quiesce:        outcome.QuiesceDuration,
		Deferred:       outcome.Deferred,
		InFlightBefore: before,
		InFlightAfter:  c.inFlight(),
		NodeTimings:    outcome.NodeTimings,
	}, nil
}

// inFlight counts released-but-uncompleted jobs.
func (c *Cluster) inFlight() int64 {
	_, released, _, completed := c.counters()
	return released - completed
}

// Stop is the Binding teardown: watch streams close, drivers halt and every
// node shuts down.
func (c *Cluster) Stop() error {
	c.Close()
	return nil
}

// Collector returns the completion accounting.
func (c *Cluster) Collector() *completions { return &c.done }

// component looks a component instance up on a node by ID and types it.
func component[T any](n *live.Node, id string) (T, error) {
	comp, ok := n.Container.Lookup(id)
	if t, typed := comp.(T); ok && typed {
		return t, nil
	}
	var none T
	if !ok {
		return none, fmt.Errorf("cluster: no %s on node %s", id, n.Name)
	}
	return none, fmt.Errorf("cluster: %s has unexpected type %T", id, comp)
}

// TE returns the task effector on application processor i.
func (c *Cluster) TE(i int) (*live.TaskEffector, error) {
	return component[*live.TaskEffector](c.Apps[i], fmt.Sprintf("TE-%d", i))
}

// IR returns the idle resetter on application processor i.
func (c *Cluster) IR(i int) (*live.IdleResetter, error) {
	return component[*live.IdleResetter](c.Apps[i], fmt.Sprintf("IR-%d", i))
}

// AC returns the central admission controller.
func (c *Cluster) AC() (*live.AdmissionController, error) {
	return component[*live.AdmissionController](c.Manager, "Central-AC")
}

// Subtasks returns every subtask component instance across the cluster,
// keyed by instance ID.
func (c *Cluster) Subtasks() map[string]*live.Subtask {
	out := make(map[string]*live.Subtask)
	for _, app := range c.Apps {
		for _, id := range app.Container.InstanceIDs() {
			if st, err := component[*live.Subtask](app, id); err == nil {
				out[id] = st
			}
		}
	}
	return out
}

// StartDrivers launches the arrival generators (one per application node)
// with the given time compression. Drivers generate the task set deployed
// at the time of the call; tasks added later are driven through Submit.
func (c *Cluster) StartDrivers(timeScale float64) error {
	if len(c.drivers) > 0 {
		return fmt.Errorf("cluster: drivers already started")
	}
	tasks := c.Tasks()
	for i := range c.Apps {
		te, err := c.TE(i)
		if err != nil {
			return err
		}
		d := live.NewDriver(te, tasks, timeScale, c.seed+int64(i))
		c.drivers = append(c.drivers, d)
		d.Start()
	}
	return nil
}

// StopDrivers halts arrival generation.
func (c *Cluster) StopDrivers() {
	for _, d := range c.drivers {
		d.Stop()
	}
	c.drivers = nil
}

// TransportStats snapshots every node's transport-plane counters, keyed by
// node name — the overload accounting surface for scale experiments: how
// well writes batched, and whether any forward failed.
func (c *Cluster) TransportStats() map[string]live.NodeTransportStats {
	out := make(map[string]live.NodeTransportStats, len(c.Apps)+1)
	if c.Manager != nil {
		out[c.Manager.Name] = c.Manager.TransportStats()
	}
	for _, app := range c.Apps {
		out[app.Name] = app.TransportStats()
	}
	return out
}

// Drain waits until the cluster has drained — every application executor
// idle and every released job completed (a completion is counted a moment
// after its executor goes idle, through the node's local Done event) — or the
// timeout expires, and reports whether it got there.
func (c *Cluster) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		drained := c.inFlight() == 0
		for _, app := range c.Apps {
			drained = drained && app.Executor.Idle()
		}
		if drained || !time.Now().Before(deadline) {
			return drained
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close stops drivers, closes watch streams and tears every node down.
// Nodes already killed by the chaos hooks are skipped.
func (c *Cluster) Close() {
	c.cfgMu.Lock()
	life := *c.life.Load()
	life.stopped = true
	c.life.Store(&life)
	c.cfgMu.Unlock()
	if c.detector != nil {
		c.detector.halt()
	}
	c.hub.CloseAll()
	c.StopDrivers()
	if c.launcher != nil {
		c.launcher.Shutdown()
	}
	for i, app := range c.Apps {
		if c.isDead(i) {
			continue
		}
		_ = app.Close()
	}
	if c.Manager != nil {
		_ = c.Manager.Close()
	}
}
