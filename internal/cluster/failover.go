// Node-loss survival: heartbeat failure detection, chaos hooks, and the
// zero-loss failover transaction.
//
// The failure plane has three parts. A detector on the task manager watches
// the per-node heartbeat beacons (EvHeartbeat over the federated event
// plane) and declares a node dead after a silence timeout. A dead-letter
// tracker tails every application node's locally pushed Release/Trigger/Done
// events, so at any instant it knows each in-flight job's placement and the
// stage it is on — the redelivery source of truth. Failover itself is one
// reconfiguration transaction through the same quiesce→delta→resume
// machinery strategy swaps use: the configuration engine synthesizes a
// processor-removal delta (dead stages re-home onto surviving replicas), the
// launcher executes it skipping the dead node, and every job stranded on the
// dead processor is re-pushed onto the survivors with a remapped placement.
// Submissions arriving mid-failover wait in the admission controller's
// quiesce buffer, as they do during any reconfiguration.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/configengine"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/eventchan"
	"repro/internal/live"
	"repro/internal/sched"
)

// DefaultHeartbeatTimeout is the heartbeat silence span after which the
// detector declares a node dead. At the default beacon period (25ms) it
// tolerates well over a dozen consecutive losses, so scheduling noise on a
// loaded test machine does not trigger false positives.
const DefaultHeartbeatTimeout = 500 * time.Millisecond

// redeliverySource marks events re-pushed by the failover plane. The watch
// taps and the dead-letter tracker filter on the pushing node's name, so a
// redelivery never double-counts as a fresh release.
const redeliverySource = "failover"

// NodeHealth is one node's liveness as seen by the failure detector.
type NodeHealth struct {
	// Node names the application node; Proc is its processor index.
	Node string
	Proc int
	// Alive is false from KillNode until RecoverNode.
	Alive bool
	// Suspect is true once the detector declared the node silent.
	Suspect bool
	// Beats counts heartbeats received; SinceBeat is the silence span at
	// snapshot time.
	Beats     int64
	SinceBeat time.Duration
}

// detector is the manager-side failure detector: it tails the heartbeat
// stream and declares nodes dead after a silence timeout.
type detector struct {
	c *Cluster

	mu       sync.Mutex
	lastSeen map[string]time.Time
	beats    map[string]int64
	suspect  map[string]bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// newDetector builds a detector over the cluster's application nodes. Every
// node starts with a full timeout of grace before its first beat is due.
func newDetector(c *Cluster) *detector {
	d := &detector{
		c:        c,
		lastSeen: make(map[string]time.Time, len(c.Apps)),
		beats:    make(map[string]int64, len(c.Apps)),
		suspect:  make(map[string]bool, len(c.Apps)),
		stop:     make(chan struct{}),
	}
	now := time.Now()
	for _, app := range c.Apps {
		d.lastSeen[app.Name] = now
	}
	return d
}

// start subscribes to the heartbeat stream on the manager's channel and
// launches the monitor goroutine.
func (d *detector) start() {
	d.c.Manager.Channel.Subscribe(live.EvHeartbeat, d.onBeat)
	d.wg.Add(1)
	go d.monitor()
}

// halt stops the monitor goroutine.
func (d *detector) halt() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	d.wg.Wait()
}

// onBeat records one heartbeat. Beats from a node already declared dead are
// counted but do not resurrect it — only RecoverNode does.
func (d *detector) onBeat(ev eventchan.Event) {
	hb, err := live.DecodeHeartbeat(ev.Payload)
	if err != nil {
		return
	}
	d.mu.Lock()
	if _, known := d.lastSeen[hb.Node]; known {
		d.beats[hb.Node]++
		if !d.suspect[hb.Node] {
			d.lastSeen[hb.Node] = time.Now()
		}
	}
	d.mu.Unlock()
}

// monitor periodically scans for silent nodes.
func (d *detector) monitor() {
	defer d.wg.Done()
	ticker := time.NewTicker(DefaultHeartbeatTimeout / 8)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			d.scan()
		}
	}
}

// scan declares every newly silent node dead: one WatchNodeDown each.
// Failover stays the caller's move.
func (d *detector) scan() {
	now := time.Now()
	var downs []string
	d.mu.Lock()
	for name, seen := range d.lastSeen {
		if d.suspect[name] || now.Sub(seen) <= DefaultHeartbeatTimeout {
			continue
		}
		d.suspect[name] = true
		downs = append(downs, name)
	}
	d.mu.Unlock()
	for _, name := range downs {
		d.c.emit(core.WatchEvent{Kind: core.WatchNodeDown, Task: name, Job: -1})
	}
}

// markSuspect latches a node as declared-dead, reporting whether this call
// made the transition. Failover uses it so the NodeDown announcement is
// emitted exactly once whether the detector or a manual Failover ran first.
func (d *detector) markSuspect(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.suspect[name] {
		return false
	}
	d.suspect[name] = true
	return true
}

// revive clears a recovered node's suspicion and restarts its grace period.
func (d *detector) revive(name string) {
	d.mu.Lock()
	d.suspect[name] = false
	d.lastSeen[name] = time.Now()
	d.mu.Unlock()
}

// health snapshots per-node liveness in processor order.
func (d *detector) health() []NodeHealth {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NodeHealth, 0, len(d.c.Apps))
	for _, app := range d.c.Apps {
		out = append(out, NodeHealth{
			Node:      app.Name,
			Proc:      app.Proc,
			Alive:     !d.c.isDead(app.Proc),
			Suspect:   d.suspect[app.Name],
			Beats:     d.beats[app.Name],
			SinceBeat: now.Sub(d.lastSeen[app.Name]),
		})
	}
	return out
}

// Health reports per-node heartbeat status from the failure detector.
func (c *Cluster) Health() []NodeHealth {
	if c.detector == nil {
		return nil
	}
	return c.detector.health()
}

// trackedJob is one in-flight job's position: the placement it is executing
// under and the stage it is on (or about to enter).
type trackedJob struct {
	placement    []sched.PlacedStage
	arrivalNanos int64
	nextStage    int
	// redelivered latches once the failover plane re-pushed this job, so
	// the at-failover scan and the stranded-trigger path cannot both fire.
	// A genuine later hop (pushed by a live node) clears it.
	redelivered bool
}

// tracker is the dead-letter plane: Cluster.observe feeds it every
// application node's local Release/Trigger/Done pushes so that, at failover time, the set of jobs
// stranded on the dead processor — and the exact stage to resume each from —
// is known without any node's cooperation.
type tracker struct {
	c *Cluster

	mu   sync.Mutex
	jobs map[sched.JobKey]*trackedJob
	// active marks processors whose failover completed: a trigger bound for
	// one is stranded (its executor is gone) and redelivers immediately.
	active map[int]bool

	redelivered int64
	lost        int64
}

// newTracker builds an empty tracker.
func newTracker(c *Cluster) *tracker {
	return &tracker{
		c:      c,
		jobs:   make(map[sched.JobKey]*trackedJob),
		active: make(map[int]bool),
	}
}

// hop records a job entering a stage. If the stage's processor has already
// been failed over, the trigger is a dead letter — the executor that would
// run it is gone — and the job redelivers onto the survivors at once.
func (tr *tracker) hop(trg live.Trigger) {
	if trg.Stage < 0 || trg.Stage >= len(trg.Placement) {
		return
	}
	ref := sched.JobKey{Task: trg.Task, Job: trg.Job}
	tr.mu.Lock()
	j := tr.jobs[ref]
	if j == nil {
		j = &trackedJob{}
		tr.jobs[ref] = j
	}
	j.placement = trg.Placement
	j.arrivalNanos = trg.ArrivalNanos
	j.nextStage = trg.Stage
	stranded := tr.active[trg.Placement[trg.Stage].Proc]
	j.redelivered = stranded
	tr.mu.Unlock()
	if stranded {
		// Redeliver off the pusher's goroutine: the push into the
		// survivor's channel may block on its gateway.
		go tr.c.redeliver(trg)
	}
}

// retire forgets a completed job.
func (tr *tracker) retire(ref sched.JobKey) {
	tr.mu.Lock()
	delete(tr.jobs, ref)
	tr.mu.Unlock()
}

// activate marks a processor's failover complete and collects every job
// currently stranded on it (its next stage was placed there). The collected
// jobs are latched as redelivered under the same lock that makes future
// stranded triggers redeliver, so no job can fall between the scan and the
// live path.
func (tr *tracker) activate(proc int) []live.Trigger {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.active[proc] = true
	var out []live.Trigger
	for ref, j := range tr.jobs {
		if j.redelivered || j.nextStage >= len(j.placement) {
			continue
		}
		if !tr.active[j.placement[j.nextStage].Proc] {
			continue
		}
		j.redelivered = true
		out = append(out, live.Trigger{
			Task: ref.Task, Job: ref.Job, Stage: j.nextStage,
			Placement: j.placement, ArrivalNanos: j.arrivalNanos,
		})
	}
	return out
}

// deactivate clears a processor from the stranded set once its node
// recovered — placements may legitimately target it again.
func (tr *tracker) deactivate(proc int) {
	tr.mu.Lock()
	delete(tr.active, proc)
	tr.mu.Unlock()
}

// headedFor reports whether any tracked job that arrived at or after
// sinceNanos will still push a hop addressed to proc: one with a remaining
// stage placed there. A redelivered job does not count — redelivery remapped
// every remaining stage off dead processors.
func (tr *tracker) headedFor(proc int, sinceNanos int64) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, j := range tr.jobs {
		if j.redelivered || j.arrivalNanos < sinceNanos {
			continue
		}
		for s := j.nextStage; s < len(j.placement); s++ {
			if j.placement[s].Proc == proc {
				return true
			}
		}
	}
	return false
}

// stats snapshots the redelivery counters.
func (tr *tracker) stats() (redelivered, lost int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.redelivered, tr.lost
}

// count records one redelivery outcome.
func (tr *tracker) count(ok bool) {
	tr.mu.Lock()
	if ok {
		tr.redelivered++
	} else {
		tr.lost++
	}
	tr.mu.Unlock()
}

// RedeliveryStats reports how many stranded jobs the failover plane re-pushed
// onto survivors, and how many had no surviving route (their task was
// withdrawn by the failover).
func (c *Cluster) RedeliveryStats() (redelivered, lost int64) { return c.tracker.stats() }

// redeliver re-pushes one stranded job onto the survivors: stages still
// placed on dead processors are remapped to their post-failover homes, and
// the release (stage 0) or trigger (later stages) is pushed into the new
// stage-host's channel. The push carries a synthetic source so the watch
// taps and the tracker do not count it as a fresh hop; the subtask
// components route purely on the payload placement, so exactly one survivor
// executes it. Returns false — and the tracker counts the job lost — if the
// job's task did not survive the failover.
func (c *Cluster) redeliver(trg live.Trigger) (ok bool) {
	defer func() { c.tracker.count(ok) }()
	task := c.table.Task(trg.Task)
	if task != nil {
		if cur, ok := c.table.Lookup(task.ID); !ok || cur != trg.Task {
			task = nil
		}
	}
	if task == nil || len(task.Subtasks) < len(trg.Placement) {
		// Withdrawn by the failover: no surviving replica for some stage.
		return false
	}
	pl := make([]sched.PlacedStage, len(trg.Placement))
	copy(pl, trg.Placement)
	for s := trg.Stage; s < len(pl); s++ {
		if c.isDead(pl[s].Proc) {
			pl[s].Proc = task.Subtasks[s].Processor
		}
	}
	target := pl[trg.Stage].Proc
	if target < 0 || target >= len(c.Apps) || c.isDead(target) {
		return false
	}
	trg.Placement = pl
	evType := live.EvTrigger
	if trg.Stage == 0 {
		evType = live.EvRelease
	}
	err := c.Apps[target].Channel.PushTo(target, eventchan.Event{
		Type: evType, Source: redeliverySource, Payload: live.AppendTrigger(nil, &trg),
	})
	return err == nil
}

// isDead reports whether a processor's node is currently down.
func (c *Cluster) isDead(proc int) bool {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	return c.deadProcs[proc]
}

// KillNode is the chaos hook: it hard-stops application node i — container,
// executor and transport — exactly as a crash would, halts its arrival
// generator, and prunes the survivors' gateway routes to the dead address so
// they stop dialing it. Detection and announcement are left to the failure
// detector and failover to the caller's Failover: the kill itself is silent,
// as a real crash is.
func (c *Cluster) KillNode(i int) error {
	if i < 0 || i >= len(c.Apps) {
		return fmt.Errorf("cluster: kill node: no processor %d", i)
	}
	c.failMu.Lock()
	if c.deadProcs == nil {
		c.deadProcs = make(map[int]bool)
	}
	if c.deadProcs[i] {
		c.failMu.Unlock()
		return fmt.Errorf("cluster: kill node: processor %d: %w", i, live.ErrNodeDown)
	}
	c.deadProcs[i] = true
	c.failMu.Unlock()
	app := c.Apps[i]
	_ = app.Close()
	if i < len(c.drivers) && c.drivers[i] != nil {
		c.drivers[i].Stop()
	}
	c.pruneSinks(app.Addr)
	return nil
}

// pruneSinks removes every surviving gateway's route to a dead address.
func (c *Cluster) pruneSinks(addr string) {
	if c.Manager != nil {
		c.Manager.Channel.RemoveRemoteSink(addr)
	}
	for j, app := range c.Apps {
		if c.isDead(j) {
			continue
		}
		app.Channel.RemoveRemoteSink(addr)
	}
}

// drainFailedOver lets the jobs still holding a pre-failover placement
// through processor i run out while the tracker redelivers their Triggers,
// so RecoverNode can stop redelivery before the routes to the replacement
// exist without losing a Trigger pushed in between. It waits only if i was
// failed over, which it reports: the failover pruned i from every task, so no
// new placement names it, whereas after a bare KillNode every new job does
// and the wait would never end. Jobs past the longest task deadline are
// skipped, and the wait ends that long after entry at the latest.
func (c *Cluster) drainFailedOver(i int) bool {
	c.failMu.Lock()
	failedOver := c.failedOver[i]
	c.failMu.Unlock()
	if !failedOver {
		return failedOver
	}
	var maxDeadline time.Duration
	for _, t := range c.Tasks() {
		maxDeadline = max(maxDeadline, t.Deadline)
	}
	giveUp := time.Now().Add(maxDeadline)
	for now := time.Now(); now.Before(giveUp) && c.tracker.headedFor(i, now.Add(-maxDeadline).UnixNano()); now = time.Now() {
		time.Sleep(time.Millisecond)
	}
	return true
}

// RecoverNode replaces a dead application node with a fresh one (same name
// and processor slot, new address) and redeploys its slice of the running
// plan — which Delta.Apply kept truthful across reconfigurations and
// failovers, so the recovered node comes back with the post-failover
// component state, not the pre-crash one. The node rejoins as standby
// capacity: tasks re-homed away by a failover stay where they are, and its
// replica slots make it a failover target again. Emits WatchNodeRecovered.
func (c *Cluster) RecoverNode(i int) error {
	if i < 0 || i >= len(c.Apps) {
		return fmt.Errorf("cluster: recover node: no processor %d", i)
	}
	// Outside the configuration lock: a slow drain must not hold up Failover,
	// Reconfigure or Close.
	drained := c.drainFailedOver(i)
	c.cfgMu.Lock()
	defer c.cfgMu.Unlock()
	if c.life.Load().stopped {
		return fmt.Errorf("cluster: recover node: %w", core.ErrStopped)
	}
	c.failMu.Lock()
	dead := c.deadProcs[i]
	failedOver := c.failedOver[i]
	c.failMu.Unlock()
	if !dead {
		return fmt.Errorf("cluster: recover node: processor %d is not down", i)
	}
	if failedOver && !drained { // a failover of i finished in between
		c.drainFailedOver(i)
	}
	// Stop redelivery before any route points at the replacement: once the
	// survivors' gateways reach it, a pre-failover Trigger still addressed to
	// this processor runs there, and redelivering it to a survivor as well
	// would complete the job twice.
	c.tracker.deactivate(i)

	old := c.Apps[i]
	// Bank the dead effector's counters: the replacement starts at zero and
	// the binding's counters must stay monotonic across the swap.
	if te, err := c.TE(i); err == nil {
		s := te.StatsSnapshot()
		c.failMu.Lock()
		if c.lostStats == nil {
			c.lostStats = make(map[int]live.TEStats)
		}
		prev := c.lostStats[i]
		prev.Arrived += s.Arrived
		prev.Released += s.Released
		prev.Skipped += s.Skipped
		prev.Relocated += s.Relocated
		c.lostStats[i] = prev
		c.failMu.Unlock()
	}

	node, err := live.NewNode(old.Name, i, "127.0.0.1:0", c.execScale)
	if err != nil {
		return err
	}
	deploy.NewNodeManager(node.ORB, c.registry, node.Container, node.Channel)
	setAddr := func(addr string) {
		for j := range c.Plan.Nodes {
			if c.Plan.Nodes[j].Name == old.Name {
				c.Plan.Nodes[j].Address = addr
			}
		}
	}
	setAddr(node.Addr)
	c.Apps[i] = node
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d, err := c.Plan.Redeployment(old.Name)
	if err == nil {
		_, err = deploy.NewLauncher(c.launcher).Execute(ctx, d)
	}
	if err != nil {
		// The slot stays marked dead; a retry can replace the node again.
		if failedOver {
			for _, trg := range c.tracker.activate(i) {
				c.redeliver(trg)
			}
		}
		_ = node.Close()
		c.Apps[i] = old
		setAddr(old.Addr)
		return err
	}

	c.observe(node)

	c.failMu.Lock()
	delete(c.deadProcs, i)
	delete(c.failedOver, i)
	c.failMu.Unlock()
	if c.detector != nil {
		c.detector.revive(node.Name)
	}
	c.emit(core.WatchEvent{Kind: core.WatchNodeRecovered, Task: node.Name, Job: -1})
	return nil
}

// FailoverReport describes one completed failover transaction.
type FailoverReport struct {
	// Node and Proc identify the failed node.
	Node string `json:"node"`
	Proc int    `json:"proc"`
	// Epoch is the post-failover configuration epoch; task effectors cache
	// no per-task decision stamped below it.
	Epoch int64 `json:"epoch"`
	// Duration is the whole transaction's wall time (delta synthesis through
	// redelivery); Quiesce is the admission-quiesce span within it.
	Duration time.Duration `json:"duration_ns"`
	Quiesce  time.Duration `json:"quiesce_ns"`
	// Redelivered counts stranded jobs re-pushed onto survivors at failover;
	// Lost counts stranded jobs whose task did not survive (no replica).
	Redelivered int `json:"redelivered"`
	Lost        int `json:"redelivery_lost"`
	// Rehomed maps task IDs to the stages that moved off the dead processor
	// (stage → new processor); Withdrawn lists tasks lost with the node.
	Rehomed   map[string]map[int]int `json:"rehomed,omitempty"`
	Withdrawn []string               `json:"withdrawn,omitempty"`
}

// Failover removes a dead processor from the running deployment with no
// admitted-job loss. It is a lifecycle transaction like Reconfigure: the
// configuration engine synthesizes the processor-removal delta (stages homed
// on the dead processor re-home onto surviving replicas, EDMS priorities
// re-assigned), the launcher executes it through the standard quiesce
// transaction — skipping the dead node — and every job the dead-letter
// tracker shows stranded on the dead processor is redelivered onto the
// survivors. Arrivals meanwhile wait in the admission controller's quiesce
// buffer. The node must already be marked dead by KillNode.
func (c *Cluster) Failover(proc int) (*FailoverReport, error) {
	if proc < 0 || proc >= len(c.Apps) {
		return nil, fmt.Errorf("cluster: failover: no processor %d", proc)
	}
	c.cfgMu.Lock()
	defer c.cfgMu.Unlock()
	c.failMu.Lock()
	dead, failedOver := c.deadProcs[proc], c.failedOver[proc]
	c.failMu.Unlock()
	if failedOver {
		return nil, fmt.Errorf("cluster: failover: processor %d already failed over", proc)
	}
	if !dead {
		return nil, fmt.Errorf("cluster: failover: processor %d is not down", proc)
	}
	start := time.Now()
	name := c.Apps[proc].Name
	var surgery *configengine.FailoverOutcome
	outcome, err := c.transact("failover", false, c.Config(), func() (d *deploy.Delta, err error) {
		// Announce exactly once, whichever of the detector and this
		// transaction gets there first, and before the redelivered jobs'
		// events.
		if c.detector != nil && c.detector.markSuspect(name) {
			c.emit(core.WatchEvent{Kind: core.WatchNodeDown, Task: name, Job: -1})
		}
		d, surgery, err = configengine.FailoverDelta(c.Plan, proc)
		return d, err
	})
	if err != nil {
		return nil, err
	}
	c.failMu.Lock()
	if c.failedOver == nil {
		c.failedOver = make(map[int]bool)
	}
	c.failedOver[proc] = true
	c.failMu.Unlock()

	redelivered, lost := 0, 0
	for _, trg := range c.tracker.activate(proc) {
		if c.redeliver(trg) {
			redelivered++
		} else {
			lost++
		}
	}
	return &FailoverReport{
		Node:        name,
		Proc:        proc,
		Epoch:       outcome.Epoch,
		Duration:    time.Since(start),
		Quiesce:     outcome.QuiesceDuration,
		Redelivered: redelivered,
		Lost:        lost,
		Rehomed:     surgery.Rehomed,
		Withdrawn:   surgery.Withdrawn,
	}, nil
}

// AuditAdmissionState checks the active admission controller's ledger for
// internal consistency — the post-failover zero-loss proof obligation.
func (c *Cluster) AuditAdmissionState() error {
	ac, err := c.AC()
	if err != nil {
		return err
	}
	if err := ac.AuditLedger(); err != nil {
		return fmt.Errorf("cluster: active ledger: %w", err)
	}
	return nil
}
