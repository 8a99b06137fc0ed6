package core

import (
	"testing"
	"time"

	"repro/internal/sched"
)

// TestControllerRemoveTask checks that withdrawing a task releases its
// permanent per-task reservation through the ledger's task index and clears
// the per-task decision memory, so the same task name is re-tested afresh.
func TestControllerRemoveTask(t *testing.T) {
	ctrl, err := NewController(Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}, 2)
	if err != nil {
		t.Fatal(err)
	}
	task := &sched.Task{
		ID:       "P1",
		Kind:     sched.Periodic,
		Period:   time.Second,
		Deadline: time.Second,
		Subtasks: []sched.Subtask{{Index: 0, Exec: 300 * time.Millisecond, Processor: 0}},
	}
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := ctrl.Arrive(task, 0, 0); !d.Accept || !d.Reserved {
		t.Fatalf("first arrival decision = %+v, want accepted reservation", d)
	}
	if got := ctrl.Ledger().Util(0); got == 0 {
		t.Fatal("reservation left no utilization on processor 0")
	}
	// Deadline expiry must not release the permanent reservation.
	if n := ctrl.ExpireJob(sched.JobRef{Task: "P1", Job: 0}); n != 0 {
		t.Fatalf("ExpireJob removed %d permanent contributions, want 0", n)
	}

	// P1 is the first task the controller's name edge saw: ref 0.
	if n := ctrl.RemoveTask(0); n != 1 {
		t.Fatalf("RemoveTask removed %d contributions, want 1", n)
	}
	if got := ctrl.Ledger().Util(0); got != 0 {
		t.Fatalf("utilization %g after removal, want 0", got)
	}
	if ctrl.Stats.TaskRemovals != 1 {
		t.Fatalf("Stats.TaskRemovals = %d, want 1", ctrl.Stats.TaskRemovals)
	}
	if err := ctrl.Ledger().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The task re-registers as new: its first arrival is tested again.
	tests := ctrl.Stats.Tests
	if d := ctrl.Arrive(task, 7, 0); !d.Accept || !d.Reserved || ctrl.Stats.Tests != tests+1 {
		t.Fatalf("re-arrival decision = %+v after %d tests, want a fresh reservation after one", d, ctrl.Stats.Tests-tests)
	}
}
