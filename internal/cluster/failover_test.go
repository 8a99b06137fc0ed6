package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/live"
	"repro/internal/sched"
	"repro/internal/spec"
)

// failoverWorkload is a three-processor workload in which every stage placed
// on any single processor declares a replica elsewhere, so no single node
// loss withdraws a task — the zero-loss failover precondition.
func failoverWorkload(t *testing.T) *spec.Workload {
	t.Helper()
	w, err := spec.Parse([]byte(`{
	  "name": "failover",
	  "processors": 3,
	  "tasks": [
	    {"id": "cam", "kind": "aperiodic", "deadline": "500ms", "meanInterarrival": "250ms",
	     "subtasks": [
	       {"exec": "3ms", "processor": 0, "replicas": [2]},
	       {"exec": "2ms", "processor": 1, "replicas": [2]}
	     ]},
	    {"id": "lidar", "kind": "aperiodic", "deadline": "400ms", "meanInterarrival": "250ms",
	     "subtasks": [{"exec": "4ms", "processor": 1, "replicas": [0]}]},
	    {"id": "fuse", "kind": "aperiodic", "deadline": "600ms", "meanInterarrival": "250ms",
	     "subtasks": [
	       {"exec": "3ms", "processor": 2, "replicas": [0]},
	       {"exec": "2ms", "processor": 0, "replicas": [2]}
	     ]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// submitAll injects count arrivals of every deployed task and returns the
// number of non-error submissions.
func submitAll(t *testing.T, c *Cluster, count int) int {
	t.Helper()
	ids := make([]string, 0, count*3)
	for _, task := range c.Tasks() {
		for i := 0; i < count; i++ {
			ids = append(ids, task.ID)
		}
	}
	adms, err := c.SubmitBatch(ids)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	return len(adms)
}

// quietSnapshot drains the executors and returns a snapshot that is both
// drained and quiet. Admission decisions resolve asynchronously, so
// Released == Completed can hold transiently while the last burst is still
// being decided.
func quietSnapshot(t *testing.T, c *Cluster) core.BindingSnapshot {
	t.Helper()
	if !c.Drain(5 * time.Second) {
		t.Fatal("executors never drained")
	}
	snap := c.Snapshot()
	settle(t, 20*time.Second, func() bool {
		s := c.Snapshot()
		if s.Released != s.Completed {
			snap = s
			return false
		}
		// A loaded CI machine can sit on a pending decision for a while;
		// demand half a second of total silence before trusting the counts.
		time.Sleep(500 * time.Millisecond)
		s2 := c.Snapshot()
		snap = s2
		return s2 == s
	})
	return snap
}

// TestFailoverZeroLossAndWatchSemantics drives the whole survival story on
// one cluster — burst, kill, failover, burst, recover, burst, drain — and
// checks the zero-loss obligations plus the watch stream's ordering
// guarantees across the failure events.
func TestFailoverZeroLossAndWatchSemantics(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask}
	c, err := Start(Options{Workload: failoverWorkload(t), Config: cfg, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	watch, err := c.Watch(core.WatchOptions{Buffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}

	submitAll(t, c, 4)
	// Kill while jobs are in flight so the dead-letter tracker has stranded
	// triggers to redeliver.
	submitAll(t, c, 3)
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	report, err := c.Failover(1)
	if err != nil {
		t.Fatal(err)
	}
	if report.Node != "app1" || report.Proc != 1 {
		t.Errorf("report identifies %s/%d, want app1/1", report.Node, report.Proc)
	}
	if report.Epoch < 1 {
		t.Errorf("failover epoch = %d, want >= 1", report.Epoch)
	}
	if report.Lost != 0 {
		t.Errorf("failover lost %d stranded jobs", report.Lost)
	}
	if len(report.Withdrawn) != 0 {
		t.Errorf("fully replicated workload withdrew tasks: %v", report.Withdrawn)
	}
	// cam and lidar each had a stage homed on processor 1; both must move.
	if len(report.Rehomed["cam"]) == 0 || len(report.Rehomed["lidar"]) == 0 {
		t.Errorf("rehoming incomplete: %v", report.Rehomed)
	}

	submitAll(t, c, 3)
	if err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	submitAll(t, c, 3)

	snap := quietSnapshot(t, c)
	if snap.Released != snap.Completed {
		t.Errorf("lost jobs: released %d, completed %d", snap.Released, snap.Completed)
	}
	if snap.Epoch != report.Epoch {
		t.Errorf("snapshot epoch %d != failover epoch %d", snap.Epoch, report.Epoch)
	}
	if _, lost := c.RedeliveryStats(); lost != 0 {
		t.Errorf("redelivery lost %d jobs", lost)
	}
	if err := c.AuditAdmissionState(); err != nil {
		t.Error(err)
	}

	// Give trailing Done events time to land, then read the stream back.
	time.Sleep(100 * time.Millisecond)
	watch.Cancel()
	if watch.Dropped() != 0 {
		t.Fatalf("watch dropped %d events; assertions below would be unsound", watch.Dropped())
	}
	var lastSeq int64
	completedBy := make(map[string]map[int64]int)
	nodeDown, nodeRecovered := 0, 0
	for ev := range watch.Events() {
		if ev.Seq <= lastSeq {
			t.Fatalf("Seq not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Kind {
		case core.WatchCompleted:
			if completedBy[ev.Task] == nil {
				completedBy[ev.Task] = make(map[int64]int)
			}
			completedBy[ev.Task][ev.Job]++
		case core.WatchNodeDown:
			nodeDown++
			if ev.Task != "app1" || ev.Job != -1 {
				t.Errorf("NodeDown event = %q/%d, want app1/-1", ev.Task, ev.Job)
			}
			if nodeRecovered != 0 {
				t.Error("NodeDown delivered after NodeRecovered")
			}
		case core.WatchNodeRecovered:
			nodeRecovered++
			if ev.Task != "app1" || ev.Job != -1 {
				t.Errorf("NodeRecovered event = %q/%d, want app1/-1", ev.Task, ev.Job)
			}
		}
	}
	if nodeDown != 1 {
		t.Errorf("NodeDown delivered %d times, want exactly once", nodeDown)
	}
	if nodeRecovered != 1 {
		t.Errorf("NodeRecovered delivered %d times, want exactly once", nodeRecovered)
	}
	var completions int64
	for task, jobs := range completedBy {
		for job, n := range jobs {
			completions++
			if n != 1 {
				t.Errorf("job %s/%d completed %d times on the watch stream (redelivery double-count)", task, job, n)
			}
		}
	}
	if completions != snap.Completed {
		t.Errorf("watch saw %d completions, counters say %d", completions, snap.Completed)
	}
}

// TestDetectorAnnouncesCallerFailsOver kills a node silently with jobs in
// flight and lets the heartbeat detector find it: the detector announces
// WatchNodeDown and does nothing else, the caller's Failover re-homes the
// node's stages without a second announcement, and no admitted job is lost.
func TestDetectorAnnouncesCallerFailsOver(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask}
	c, err := Start(Options{Workload: failoverWorkload(t), Config: cfg, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	watch, err := c.Watch(core.WatchOptions{Kinds: []core.WatchKind{core.WatchNodeDown}})
	if err != nil {
		t.Fatal(err)
	}

	submitAll(t, c, 3)
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-watch.Events():
		if ev.Task != "app0" {
			t.Fatalf("detector declared %q dead, want app0", ev.Task)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("detector never declared the silent node dead")
	}
	if epoch := c.Snapshot().Epoch; epoch != 0 {
		t.Fatalf("epoch %d after detection alone, want 0: the detector must not fail over", epoch)
	}

	report, err := c.Failover(0)
	if err != nil {
		t.Fatal(err)
	}
	if report.Lost != 0 {
		t.Errorf("failover lost %d stranded jobs", report.Lost)
	}
	// cam's home stage was on processor 0; after the failover it is re-homed
	// and a fresh submission must be accepted without ErrNodeDown.
	if _, err := c.Submit("cam"); err != nil {
		t.Fatalf("submit to re-homed task after failover: %v", err)
	}
	submitAll(t, c, 3)

	snap := quietSnapshot(t, c)
	if snap.Released != snap.Completed {
		t.Errorf("lost jobs: released %d, completed %d", snap.Released, snap.Completed)
	}
	if _, lost := c.RedeliveryStats(); lost != 0 {
		t.Errorf("redelivery lost %d jobs", lost)
	}
	if err := c.AuditAdmissionState(); err != nil {
		t.Error(err)
	}
	var h *NodeHealth
	health := c.Health()
	for i := range health {
		if health[i].Node == "app0" {
			h = &health[i]
		}
	}
	if h == nil {
		t.Fatal("health report missing app0")
	}
	if h.Alive || !h.Suspect {
		t.Errorf("health for killed node = %+v, want dead and suspect", *h)
	}

	watch.Cancel()
	if n := len(watch.Events()); n != 0 {
		t.Errorf("NodeDown announced %d more times after the detector's, want exactly once", n)
	}
}

// TestFailoverErrorSurface pins the failure-plane error contract: typed
// sentinels on submissions and lifecycle transactions while a node is down,
// and the failover/recover state machine's refusals.
func TestFailoverErrorSurface(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask}
	c, err := Start(Options{Workload: failoverWorkload(t), Config: cfg, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	if err := c.KillNode(5); err == nil {
		t.Error("KillNode accepted an unknown processor")
	}
	if _, err := c.Failover(1); err == nil || !strings.Contains(err.Error(), "not down") {
		t.Errorf("Failover on a live processor: %v, want not-down refusal", err)
	}
	if err := c.RecoverNode(1); err == nil || !strings.Contains(err.Error(), "not down") {
		t.Errorf("RecoverNode on a live processor: %v, want not-down refusal", err)
	}

	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(1); !errors.Is(err, live.ErrNodeDown) {
		t.Errorf("double KillNode: %v, want ErrNodeDown", err)
	}
	// lidar is homed on the dead processor and has not been failed over yet.
	if _, err := c.Submit("lidar"); !errors.Is(err, live.ErrNodeDown) {
		t.Errorf("Submit to dead home: %v, want ErrNodeDown", err)
	}
	// Lifecycle transactions are gated while a node is down un-failed-over.
	to := core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}
	if _, err := c.Reconfigure(to); !errors.Is(err, live.ErrNodeDown) {
		t.Errorf("Reconfigure with a dead node: %v, want ErrNodeDown", err)
	}
	if err := c.RemoveTasks([]string{"fuse"}); !errors.Is(err, live.ErrNodeDown) {
		t.Errorf("RemoveTasks with a dead node: %v, want ErrNodeDown", err)
	}

	if _, err := c.Failover(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Failover(1); err == nil || !strings.Contains(err.Error(), "already failed over") {
		t.Errorf("repeat Failover: %v, want already-failed-over refusal", err)
	}
	// The re-homed task accepts submissions again.
	if _, err := c.Submit("lidar"); err != nil {
		t.Errorf("Submit after failover: %v", err)
	}

	if err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverNode(1); err == nil || !strings.Contains(err.Error(), "not down") {
		t.Errorf("repeat RecoverNode: %v, want not-down refusal", err)
	}
	// With the node recovered the lifecycle gate opens again.
	if _, err := c.Reconfigure(to); err != nil {
		t.Errorf("Reconfigure after recovery: %v", err)
	}
}

// TestFailoverRacesSubmits submits from a goroutine every few milliseconds
// across KillNode, Failover and more submissions. A failover is an ordinary
// lifecycle transaction, so each arrival is either taken (one homed on a
// live processor waits out the transaction in the admission controller's
// quiesce buffer) or refused with ErrNodeDown while its home is down and
// not yet re-homed; and no admitted job is lost.
func TestFailoverRacesSubmits(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask}
	c, err := Start(Options{Workload: failoverWorkload(t), Config: cfg, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	stop := make(chan struct{})
	done := make(chan struct{})
	var taken, down int
	var unexpected []error
	go func() {
		defer close(done)
		ids := []string{"cam", "lidar", "fuse"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch _, err := c.Submit(ids[i%len(ids)]); {
			case err == nil:
				taken++
			case errors.Is(err, live.ErrNodeDown):
				down++
			default:
				unexpected = append(unexpected, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(100 * time.Millisecond)
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	report, err := c.Failover(1)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	<-done

	for _, err := range unexpected {
		t.Errorf("Submit across the failover: %v, want an admission or ErrNodeDown", err)
	}
	if taken == 0 {
		t.Fatal("no submission was taken")
	}
	t.Logf("%d submissions taken, %d refused with ErrNodeDown; failover quiesced %v", taken, down, report.Quiesce)
	snap := quietSnapshot(t, c)
	if snap.Released != snap.Completed {
		t.Errorf("lost jobs: released %d, completed %d", snap.Released, snap.Completed)
	}
	if _, lost := c.RedeliveryStats(); lost != 0 {
		t.Errorf("redelivery lost %d jobs", lost)
	}
	if err := c.AuditAdmissionState(); err != nil {
		t.Error(err)
	}
}

// TestReadersDuringFailoverTransaction holds cfgMu, as a failover or any
// other lifecycle transaction does across its network phase, and requires
// Snapshot, Config and Watch to answer anyway.
func TestReadersDuringFailoverTransaction(t *testing.T) {
	c := startCluster(t, core.Config{AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyNone})
	c.cfgMu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = c.Snapshot()
		_ = c.Config()
		if w, err := c.Watch(core.WatchOptions{}); err == nil {
			w.Cancel()
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("Snapshot, Config or Watch waited on the transaction lock")
	}
	c.cfgMu.Unlock()
	<-done
}

// TestRecoverNodeMidChainExactlyOnce is the regression test for the traced
// "job completed twice" failover bug: jobs admitted before the kill carry a
// placement whose second stage is on the killed processor, and they keep
// finishing their first stage — each pushing a Trigger addressed to that
// processor — all through the failover and into the recovery. Every one of
// those Triggers must be executed exactly once: redelivered to a survivor or
// run by the replacement, never both (RecoverNode used to wire the routes to
// the replacement while the tracker was still redelivering) and never
// neither (stopping redelivery first, without letting those jobs run out,
// loses the Triggers pushed before the routes exist).
func TestRecoverNodeMidChainExactlyOnce(t *testing.T) {
	w, err := spec.Parse([]byte(`{
	  "name": "midchain",
	  "processors": 3,
	  "tasks": [
	    {"id": "chain", "kind": "aperiodic", "deadline": "5s", "meanInterarrival": "1s",
	     "subtasks": [
	       {"exec": "1ms", "processor": 0, "replicas": [2]},
	       {"exec": "100us", "processor": 1, "replicas": [2]}
	     ]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyNone}
	c, err := Start(Options{Workload: w, Config: cfg, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	watch, err := c.Watch(core.WatchOptions{Buffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}

	// Queue ~400 ms of first-stage work on processor 0, and wait until every
	// job is released so all of them hold the pre-failover placement.
	const jobs = 400
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = "chain"
	}
	if _, err := c.SubmitBatch(ids); err != nil {
		t.Fatal(err)
	}
	if !settle(t, 10*time.Second, func() bool { return c.Snapshot().Released == jobs }) {
		t.Fatalf("released %d/%d jobs", c.Snapshot().Released, jobs)
	}

	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Failover(1); err != nil {
		t.Fatal(err)
	}
	midChain := jobs - c.Snapshot().Completed
	if midChain == 0 {
		t.Fatal("no job was mid-chain at recovery; the handoff was not exercised")
	}
	if err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}

	settle(t, 20*time.Second, func() bool { return c.Snapshot().Completed >= jobs })
	// Let a doubled completion, if any, land before reading the stream back.
	time.Sleep(200 * time.Millisecond)
	if s := c.Snapshot(); s.Completed != jobs {
		t.Errorf("released %d jobs, completed %d (%d were mid-chain at recovery)", jobs, s.Completed, midChain)
	}
	if _, lost := c.RedeliveryStats(); lost != 0 {
		t.Errorf("redelivery lost %d jobs", lost)
	}
	watch.Cancel()
	if watch.Dropped() != 0 {
		t.Fatalf("watch dropped %d events", watch.Dropped())
	}
	completed := make(map[int64]int, jobs)
	for ev := range watch.Events() {
		if ev.Kind == core.WatchCompleted {
			completed[ev.Job]++
		}
	}
	if len(completed) != jobs {
		t.Errorf("%d distinct jobs completed, want %d", len(completed), jobs)
	}
	for job, n := range completed {
		if n != 1 {
			t.Errorf("job chain/%d completed %d times", job, n)
		}
	}
}

// TestRecoverNodeWithoutFailoverDoesNotWait pins that RecoverNode returns
// promptly when the processor was killed but never failed over. No task was
// re-homed, so every new job still names the dead processor and there is no
// set of pre-failover jobs to wait out. A drain here would never end.
func TestRecoverNodeWithoutFailoverDoesNotWait(t *testing.T) {
	w, err := spec.Parse([]byte(`{
	  "name": "norehome",
	  "processors": 3,
	  "tasks": [
	    {"id": "chain", "kind": "aperiodic", "deadline": "3s", "meanInterarrival": "1s",
	     "subtasks": [
	       {"exec": "100us", "processor": 0, "replicas": [2]},
	       {"exec": "100us", "processor": 1, "replicas": [2]}
	     ]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyNone}
	c, err := Start(Options{Workload: w, Config: cfg, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	// Keep arrivals running: each one finishes its first stage on the
	// surviving processor 0 and is then headed for the dead processor 1.
	stop := make(chan struct{})
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				_, _ = c.Submit("chain")
			}
		}
	}()
	defer func() { close(stop); <-submitted }()
	if !settle(t, 5*time.Second, func() bool { return c.tracker.headedFor(1, 0) }) {
		t.Fatal("no job headed for the dead processor; the wait was not exercised")
	}

	recovered := make(chan error, 1)
	go func() { recovered <- c.RecoverNode(1) }()
	select {
	case err := <-recovered:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RecoverNode without a failover is still blocked after 2s (task deadline 3s)")
	}

	// The recovered processor executes second stages again.
	before := c.Snapshot().Completed
	if !settle(t, 5*time.Second, func() bool { return c.Snapshot().Completed > before }) {
		t.Error("no job completed through the recovered processor")
	}
}

// TestRecoverNodeRejoinsAtRunningEpoch pins that a recovered node's task
// effector enters the epoch the admission controller stamps its decisions
// with, so its per-task cache fills as a survivor's does: after one round
// trip, a periodic task's jobs resolve at Submit. A replacement configured
// at epoch 0 never caches a decision stamped 1 and sends every job to the
// manager.
func TestRecoverNodeRejoinsAtRunningEpoch(t *testing.T) {
	w, err := spec.Parse([]byte(`{
	  "name": "rejoin",
	  "processors": 2,
	  "tasks": [
	    {"id": "left", "kind": "periodic", "period": "1s", "deadline": "500ms",
	     "subtasks": [{"exec": "100us", "processor": 0}]},
	    {"id": "right", "kind": "periodic", "period": "1s", "deadline": "500ms",
	     "subtasks": [{"exec": "100us", "processor": 1}]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Start(Options{Workload: w, Config: core.Config{AC: core.StrategyPerTask, IR: core.StrategyNone, LB: core.StrategyNone}, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.Reconfigure(core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyNone}); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	ac, err := c.AC()
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []string{"left", "right"} {
		cached := settle(t, 2*time.Second, func() bool {
			adm, err := c.Submit(task)
			if err != nil {
				t.Fatalf("submit %s: %v", task, err)
			}
			return adm.Outcome != core.AdmissionPending
		})
		if !cached {
			t.Errorf("%s: no job resolved from the per-task cache within 2s (admission controller at epoch %d)", task, ac.Epoch())
		}
	}
}

// TestAddressedRoutingAcrossFailoverAndRecovery runs the kill → failover →
// recover cycle with load-balanced placements, so Releases and Triggers
// addressed to three different processors are in flight throughout: jobs
// whose second stage was addressed to the dying processor must redeliver to
// a survivor, arrivals after the failover must not need the pruned route,
// and after the recovery the survivors' gateways must know the replacement's
// new address as processor 1 — an event addressed there reaches it and no
// one else. No task is homed on the dying node, so its effector releases
// nothing, which keeps the known lost-Release flake (ROADMAP) out of this
// test.
func TestAddressedRoutingAcrossFailoverAndRecovery(t *testing.T) {
	w, err := spec.Parse([]byte(`{
	  "name": "addressed",
	  "processors": 3,
	  "tasks": [
	    {"id": "north", "kind": "aperiodic", "deadline": "5s", "meanInterarrival": "1s",
	     "subtasks": [
	       {"exec": "1ms", "processor": 0, "replicas": [2]},
	       {"exec": "3ms", "processor": 1, "replicas": [2]}
	     ]},
	    {"id": "south", "kind": "aperiodic", "deadline": "5s", "meanInterarrival": "1s",
	     "subtasks": [
	       {"exec": "1ms", "processor": 2, "replicas": [0]},
	       {"exec": "3ms", "processor": 1, "replicas": [0]}
	     ]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyPerJob}
	c, err := Start(Options{Workload: w, Config: cfg, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	watch, err := c.Watch(core.WatchOptions{Buffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	decided := func() bool {
		s := c.Snapshot()
		return s.Released+s.Skipped == s.Arrived
	}

	// Queue first-stage work on processors 0 and 2. Second stages are three
	// times as long, so once the first jobs complete, processor 1 — a
	// candidate for every second stage — has a queue of them, and more are
	// on their way to it with pre-failover placements.
	submitAll(t, c, 150)
	if !settle(t, 10*time.Second, func() bool { return c.Snapshot().Completed >= 10 }) {
		t.Fatalf("pipeline never started: %+v", c.Snapshot())
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	report, err := c.Failover(1)
	if err != nil {
		t.Fatal(err)
	}
	if report.Lost != 0 {
		t.Errorf("failover lost %d stranded jobs", report.Lost)
	}
	if report.Redelivered == 0 {
		t.Fatal("no job was addressed to the dead processor; the redelivery was not exercised")
	}
	submitAll(t, c, 40)
	if err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	submitAll(t, c, 40)

	if !settle(t, 20*time.Second, func() bool {
		s := c.Snapshot()
		return decided() && s.Completed >= s.Released
	}) {
		t.Errorf("unsettled: %+v", c.Snapshot())
	}
	// Let a doubled completion, if any, land before reading the stream back.
	time.Sleep(200 * time.Millisecond)
	snap := c.Snapshot()
	if snap.Released == 0 || snap.Completed != snap.Released {
		t.Errorf("released %d jobs, completed %d", snap.Released, snap.Completed)
	}
	if _, lost := c.RedeliveryStats(); lost != 0 {
		t.Errorf("redelivery lost %d jobs", lost)
	}

	// The replacement listens on a new address; an event addressed to
	// processor 1 must find it there, and only there.
	const probeRef = sched.TaskRef(9999) // a ref no task holds
	got := make(chan int, 4)
	for _, proc := range []int{1, 2} {
		c.Apps[proc].Channel.Subscribe(live.EvTrigger, func(ev eventchan.Event) {
			if trg, err := live.DecodeTrigger(ev.Payload); err == nil && trg.Task == probeRef {
				got <- proc
			}
		})
	}
	for _, to := range []int{1, 2} {
		probe := live.Trigger{Task: probeRef, Stage: 1, Placement: []sched.PlacedStage{{Stage: 0, Proc: 0}, {Stage: 1, Proc: to}}}
		if err := c.Apps[0].Channel.PushTo(to, eventchan.Event{Type: live.EvTrigger, Payload: live.AppendTrigger(nil, &probe)}); err != nil {
			t.Fatalf("probe to processor %d: %v", to, err)
		}
		select {
		case proc := <-got:
			if proc != to {
				t.Errorf("event addressed to processor %d arrived at processor %d", to, proc)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("event addressed to processor %d never arrived", to)
		}
		select {
		case proc := <-got:
			t.Errorf("event addressed to processor %d also arrived at processor %d", to, proc)
		case <-time.After(100 * time.Millisecond):
		}
	}

	watch.Cancel()
	if watch.Dropped() != 0 {
		t.Fatalf("watch dropped %d events", watch.Dropped())
	}
	completed := make(map[string]int)
	for ev := range watch.Events() {
		if ev.Kind == core.WatchCompleted {
			completed[fmt.Sprintf("%s/%d", ev.Task, ev.Job)]++
		}
	}
	if int64(len(completed)) != snap.Released {
		t.Errorf("%d distinct jobs completed, %d were released", len(completed), snap.Released)
	}
	for job, n := range completed {
		if n != 1 {
			t.Errorf("job %s completed %d times", job, n)
		}
	}
}

// TestFailoverRehomedTaskAdmittedOnNewHome pins that a failover rebases
// the admission controller's per-task memory for the tasks it re-homes: a
// periodic and an aperiodic task homed on processor 1 with a replica on 0
// each run one job, processor 1 dies and fails over, and every later job
// must be placed on processor 0 — not on the dead processor's memoized
// home or per-task placement, where it would run only because the
// dead-letter tracker redelivers it — with no permanent reservation left on
// the dead slot.
func TestFailoverRehomedTaskAdmittedOnNewHome(t *testing.T) {
	w, err := spec.Parse([]byte(`{"name": "rehome", "processors": 2, "tasks": [
	  {"id": "per", "kind": "periodic", "period": "200ms", "deadline": "200ms",
	   "subtasks": [{"exec": "8ms", "processor": 1, "replicas": [0]}]},
	  {"id": "lidar", "kind": "aperiodic", "deadline": "400ms",
	   "subtasks": [{"exec": "4ms", "processor": 1, "replicas": [0]}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tuple := range []string{"T_T_T", "T_N_N", "J_N_N"} {
		t.Run(tuple, func(t *testing.T) {
			cfg, err := core.ParseConfig(tuple)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Start(Options{Workload: w, Config: cfg, Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			submitAll(t, c, 1)
			quietSnapshot(t, c)
			if err := c.KillNode(1); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Failover(1); err != nil {
				t.Fatal(err)
			}
			watch, err := c.Watch(core.WatchOptions{Kinds: []core.WatchKind{core.WatchAdmitted}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				submitAll(t, c, 1)
				quietSnapshot(t, c)
			}
			watch.Cancel()
			admitted := 0
			for ev := range watch.Events() {
				admitted++
				if ev.Placement[0].Proc != 0 {
					t.Errorf("%s job %d admitted with placement %v after processor 1 failed over", ev.Task, ev.Job, ev.Placement)
				}
			}
			if admitted != 4 {
				t.Errorf("%d jobs admitted after the failover, want 4", admitted)
			}
			if redelivered, _ := c.RedeliveryStats(); redelivered != 0 {
				t.Errorf("tracker redelivered %d jobs: they were released to the dead processor", redelivered)
			}
			ac, err := c.AC()
			if err != nil {
				t.Fatal(err)
			}
			if utils := ac.Controller().Ledger().Utils(); cfg.AC == core.StrategyPerTask && (utils[1] != 0 || utils[0] == 0) {
				t.Errorf("ledger utilizations %v: the per-task reservation must move to processor 0", utils)
			}
			if err := c.AuditAdmissionState(); err != nil {
				t.Error(err)
			}
		})
	}
}
