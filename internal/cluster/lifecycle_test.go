package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/live"
	"repro/internal/sched"
)

// tenantA and tenantB are the joining tasks of the live lifecycle tests.
func tenantTasksLive() []*sched.Task {
	return []*sched.Task{
		{
			ID: "tenant-a", Kind: sched.Aperiodic,
			Deadline: 50 * time.Millisecond, MeanInterarrival: 40 * time.Millisecond,
			Subtasks: []sched.Subtask{{Index: 0, Exec: time.Millisecond, Processor: 0}},
		},
		{
			ID: "tenant-b", Kind: sched.Periodic,
			Period: 70 * time.Millisecond, Deadline: 70 * time.Millisecond,
			Subtasks: []sched.Subtask{
				{Index: 0, Exec: 2 * time.Millisecond, Processor: 1},
				{Index: 1, Exec: time.Millisecond, Processor: 0},
			},
		},
	}
}

// TestClusterAddRemoveTasksLive is the live half of the open-world tentpole
// pin: a running cluster under driver load gains two tenant tasks through
// the configuration-engine delta (subtask installs + workload updates +
// routes, under the quiesce protocol), serves batch arrivals at them, then
// removes them again — with zero admitted-job loss and a clean ledger audit
// afterwards. Runs under -race in CI.
func TestClusterAddRemoveTasksLive(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask}
	c := startCluster(t, cfg)

	watch, err := c.Watch(core.WatchOptions{Buffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	var events []core.WatchEvent
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for ev := range watch.Events() {
			events = append(events, ev)
		}
	}()

	if err := c.StartDrivers(1.0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)

	// Tenant joins: the plan gains the subtask instances and the AC and TEs
	// adopt the union workload.
	if err := c.AddTasks(tenantTasksLive()); err != nil {
		t.Fatal(err)
	}
	if snap := c.Snapshot(); snap.Epoch != 1 {
		t.Errorf("epoch after AddTasks = %d, want 1", snap.Epoch)
	}
	found := 0
	for _, inst := range c.Plan.Instances {
		if inst.Implementation == live.ImplSubtask {
			if id := inst.Attrs()[live.AttrTask]; id == "tenant-a" || id == "tenant-b" {
				found++
			}
		}
	}
	if found != 3 {
		t.Errorf("plan gained %d tenant subtask instances, want 3", found)
	}

	// Duplicate registration is refused with the typed sentinel.
	if err := c.AddTasks(tenantTasksLive()[:1]); !errors.Is(err, core.ErrTaskExists) {
		t.Errorf("duplicate AddTasks error = %v, want ErrTaskExists", err)
	}

	// Batch arrivals at the new tasks release and complete for real.
	adms, err := c.SubmitBatch([]string{"tenant-a", "tenant-b", "tenant-a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(adms) != 3 || adms[0].Job != 0 || adms[2].Job != 1 || adms[1].Task != "tenant-b" {
		t.Errorf("batch admissions = %+v", adms)
	}
	time.Sleep(200 * time.Millisecond)

	// Tenant leaves: ledger contributions withdrawn, submissions refused.
	refA, _ := c.table.Lookup("tenant-a")
	refB, _ := c.table.Lookup("tenant-b")
	if err := c.RemoveTasks([]string{"tenant-a", "tenant-b"}); err != nil {
		t.Fatal(err)
	}
	if snap := c.Snapshot(); snap.Epoch != 2 {
		t.Errorf("epoch after RemoveTasks = %d, want 2", snap.Epoch)
	}
	if _, err := c.Submit("tenant-a"); !errors.Is(err, core.ErrUnknownTask) {
		t.Errorf("submit to removed task error = %v, want ErrUnknownTask", err)
	}
	if err := c.RemoveTasks([]string{"ghost"}); !errors.Is(err, core.ErrUnknownTask) {
		t.Errorf("remove unknown task error = %v, want ErrUnknownTask", err)
	}

	time.Sleep(150 * time.Millisecond)
	c.StopDrivers()
	if !c.Drain(3 * time.Second) {
		t.Fatal("executors never drained")
	}

	// Zero admitted-job loss across the churn, and closed accounting.
	ok := settle(t, 2*time.Second, func() bool {
		s := c.Snapshot()
		return s.Released == s.Completed && s.Arrived == s.Released+s.Skipped
	})
	s := c.Snapshot()
	if !ok {
		t.Errorf("jobs lost across task churn: arrived %d, released %d, skipped %d, completed %d",
			s.Arrived, s.Released, s.Skipped, s.Completed)
	}

	// Post-run ledger audit: indexes consistent, nothing stranded for the
	// departed tenants.
	ac, err := c.AC()
	if err != nil {
		t.Fatal(err)
	}
	if err := ac.AuditLedger(); err != nil {
		t.Errorf("ledger audit after churn: %v", err)
	}
	for _, ref := range ac.ActiveLedgerJobs() {
		if ref.Task == refA || ref.Task == refB {
			t.Errorf("ledger holds contributions for removed task: %v", ref)
		}
	}

	// The watch stream observed the churn in order.
	watch.Cancel()
	<-watchDone
	var lastSeq int64
	counts := make(map[core.WatchKind]int)
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("watch event out of order: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		counts[ev.Kind]++
	}
	if counts[core.WatchTaskAdded] != 2 || counts[core.WatchTaskRemoved] != 2 {
		t.Errorf("task lifecycle events = %v", counts)
	}
	if counts[core.WatchAdmitted] == 0 || counts[core.WatchCompleted] == 0 {
		t.Errorf("missing job events: %v", counts)
	}
}

// TestReaddRemovedTaskLive adds a task, removes it and adds it again on a
// running cluster. The re-added incarnation installs subtask instances of
// its own beside the removed one's (instance IDs carry the task's ref), its
// jobs complete, and the ledger audit stays clean.
func TestReaddRemovedTaskLive(t *testing.T) {
	c := startCluster(t, core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob})
	if err := c.AddTasks(tenantTasksLive()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitBatch([]string{"tenant-a", "tenant-a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveTasks([]string{"tenant-a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTasks(tenantTasksLive()[:1]); err != nil {
		t.Fatalf("re-adding a removed task: %v", err)
	}
	if _, err := c.SubmitBatch([]string{"tenant-a", "tenant-a", "tenant-a"}); err != nil {
		t.Fatal(err)
	}
	if !c.Drain(3 * time.Second) {
		t.Fatal("executors never drained")
	}
	if !settle(t, 2*time.Second, func() bool {
		s := c.Snapshot()
		return s.Released == s.Completed && s.Arrived == s.Released+s.Skipped
	}) {
		s := c.Snapshot()
		t.Errorf("jobs lost across the re-add: arrived %d, released %d, skipped %d, completed %d",
			s.Arrived, s.Released, s.Skipped, s.Completed)
	}
	if s := c.Snapshot(); s.Completed == 0 || s.Arrived != 5 {
		t.Errorf("snapshot %+v: want 5 arrivals and completed jobs", s)
	}
	ac, err := c.AC()
	if err != nil {
		t.Fatal(err)
	}
	if err := ac.AuditLedger(); err != nil {
		t.Errorf("ledger audit after the re-add: %v", err)
	}
}

// TestClusterSubmitBatchAmortizes pins the batch ingestion path: admissions
// return in argument order with per-task job numbering, and the per-task
// cached fast path resolves synchronously on the second round.
func TestClusterSubmitBatchAmortizes(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyNone, LB: core.StrategyNone}
	c := startCluster(t, cfg)

	adms, err := c.SubmitBatch([]string{"flow", "alert", "flow"})
	if err != nil {
		t.Fatal(err)
	}
	if len(adms) != 3 {
		t.Fatalf("batch returned %d admissions", len(adms))
	}
	if adms[0].Task != "flow" || adms[0].Job != 0 || adms[2].Job != 1 {
		t.Errorf("batch order/jobs = %+v", adms)
	}
	// A task's first arrival waits for the admission controller. A repeat
	// within the batch may already find the first one's per-task decision
	// cached — whether the Accept wins that race is not this test's business.
	seen := make(map[string]bool)
	for i, adm := range adms {
		repeat := seen[adm.Task]
		seen[adm.Task] = true
		if adm.Outcome == core.AdmissionPending || repeat && adm.Outcome == core.AdmissionAccepted {
			continue
		}
		t.Errorf("first-round outcome of %s (entry %d) = %v, want pending", adm.Task, i, adm.Outcome)
	}

	// Wait for the per-task decision to come back and be cached, then the
	// fast path resolves synchronously.
	if !settle(t, 2*time.Second, func() bool {
		adm, err := c.Submit("flow")
		return err == nil && adm.Outcome == core.AdmissionAccepted
	}) {
		t.Error("per-task cached decision never resolved a submit synchronously")
	}
	c.Drain(2 * time.Second)
}

// TestDoneObserverCountsLateJoinerMiss pins the completion accounting the one
// Done observer keeps: completions, mean response, and deadline misses judged
// against the deadline index AddTasks refreshes. The collector this replaced
// kept the deadline map it was built with at Start, so a task that joined
// later never had a miss counted.
func TestDoneObserverCountsLateJoinerMiss(t *testing.T) {
	c := startCluster(t, core.Config{AC: core.StrategyPerTask, IR: core.StrategyNone, LB: core.StrategyNone})
	base := time.Now().UnixNano()
	done := func(task string, resp time.Duration) {
		t.Helper()
		ref, _ := c.table.Lookup(task)
		err := c.Apps[0].Channel.Push(eventchan.Event{Type: live.EvDone, Payload: live.AppendDone(nil, &live.Done{
			Task: ref, ArrivalNanos: base, DoneNanos: base + int64(resp),
		})})
		if err != nil {
			t.Fatal(err)
		}
	}
	done("alert", 10*time.Millisecond) // deadline 60ms: met
	done("alert", 80*time.Millisecond) // missed
	if got := c.Collector(); got.Completed() != 2 || got.Missed() != 1 || got.MeanResponse() != 45*time.Millisecond {
		t.Fatalf("completed %d, missed %d, mean %v; want 2, 1, 45ms", got.Completed(), got.Missed(), got.MeanResponse())
	}

	late := &sched.Task{
		ID: "late", Kind: sched.Aperiodic,
		Deadline: time.Millisecond, MeanInterarrival: 40 * time.Millisecond,
		Subtasks: []sched.Subtask{{Index: 0, Exec: 10 * time.Microsecond, Processor: 0}},
	}
	if err := c.AddTasks([]*sched.Task{late}); err != nil {
		t.Fatal(err)
	}
	done("late", 5*time.Millisecond) // a job of the late joiner, 4ms over its deadline
	if got := c.Collector(); got.Completed() != 3 || got.Missed() != 2 {
		t.Errorf("after the late joiner's job: completed %d, missed %d; want 3, 2", got.Completed(), got.Missed())
	}
	if snap := c.Snapshot(); snap.Completed != 3 {
		t.Errorf("Snapshot.Completed = %d, want 3", snap.Completed)
	}
}
