package core

import (
	"testing"
	"time"
)

// TestControllerReconfigureRebasesReservations pins the policy-object half
// of the swap: moving AC off per-task withdraws reservations and clears the
// per-task decision memory, so the next arrival is tested fresh.
func TestControllerReconfigureRebasesReservations(t *testing.T) {
	c := mustController(t, Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}, 2)
	tk := periodicTask("p", 0, 200*time.Millisecond, time.Second)
	d := c.Arrive(tk, 0, 0)
	if !d.Accept || !d.Reserved {
		t.Fatalf("first arrival = %+v", d)
	}
	if got := c.Ledger().Util(0); got == 0 {
		t.Fatal("no reservation recorded")
	}

	released, err := c.Reconfigure(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	if released != 1 {
		t.Errorf("released = %d, want 1", released)
	}
	if got := c.Ledger().Util(0); got != 0 {
		t.Errorf("util after rebase = %g", got)
	}
	if err := c.Ledger().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Next arrival is tested individually under per-job AC.
	before := c.Stats.Tests
	d = c.Arrive(tk, 1, 100*time.Millisecond)
	if !d.Accept || d.Reserved {
		t.Errorf("per-job arrival after swap = %+v", d)
	}
	if c.Stats.Tests != before+1 {
		t.Errorf("no fresh admission test after swap")
	}
	if c.Stats.Reconfigs != 1 || c.Stats.ReconfigReleased != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

// TestControllerRehomeTask pins the rebase of a task whose home moved under
// it: under per-task AC and LB none the permanent reservation leaves the old
// home, and the next arrival is placed, tested and reserved on the new one.
func TestControllerRehomeTask(t *testing.T) {
	c := mustController(t, Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}, 2)
	old := periodicTask("p", 1, 40*time.Millisecond, time.Second, 0)
	if d := c.Arrive(old, 0, 0); !d.Accept || d.Placement[0].Proc != 1 {
		t.Fatalf("first arrival = %+v", d)
	}
	ref, _ := c.tasks.Lookup("p")
	if released := c.RehomeTask(ref); released != 1 {
		t.Errorf("RehomeTask released %d contributions, want the reservation", released)
	}
	moved := periodicTask("p", 0, 40*time.Millisecond, time.Second)
	d := c.Arrive(moved, 1, time.Second)
	if !d.Accept || !d.Reserved || d.Placement[0].Proc != 0 {
		t.Errorf("arrival after the rehome = %+v, want a fresh reservation on processor 0", d)
	}
	if c.Ledger().Util(1) != 0 || c.Ledger().Util(0) == 0 {
		t.Errorf("utilizations %v, want the reservation on processor 0 only", c.Ledger().Utils())
	}
	if err := c.Ledger().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerReconfigureKeepsReservationsWhenACUnchanged pins that a
// swap not touching the AC axis leaves admitted tasks admitted.
func TestControllerReconfigureKeepsReservationsWhenACUnchanged(t *testing.T) {
	c := mustController(t, Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}, 2)
	tk := periodicTask("p", 0, 200*time.Millisecond, time.Second, 1)
	if d := c.Arrive(tk, 0, 0); !d.Accept {
		t.Fatalf("first arrival rejected")
	}
	util := c.Ledger().Util(0)
	if _, err := c.Reconfigure(Config{AC: StrategyPerTask, IR: StrategyPerTask, LB: StrategyPerTask}); err != nil {
		t.Fatal(err)
	}
	if got := c.Ledger().Util(0); got != util {
		t.Errorf("reservation moved: %g -> %g", util, got)
	}
	// Subsequent jobs still release without re-testing.
	before := c.Stats.Tests
	if d := c.Arrive(tk, 1, time.Second); !d.Accept {
		t.Error("admitted task re-tested and rejected after IR/LB-only swap")
	}
	if c.Stats.Tests != before {
		t.Errorf("AC-unchanged swap triggered a re-test")
	}
}

// TestControllerReconfigureRejectsInvalid pins that invalid targets leave
// the controller untouched.
func TestControllerReconfigureRejectsInvalid(t *testing.T) {
	from := Config{AC: StrategyPerTask, IR: StrategyPerTask, LB: StrategyNone}
	c := mustController(t, from, 2)
	if _, err := c.Reconfigure(Config{AC: StrategyPerTask, IR: StrategyPerJob, LB: StrategyNone}); err == nil {
		t.Fatal("contradictory target accepted")
	}
	if _, err := c.Reconfigure(Config{}); err == nil {
		t.Fatal("zero target accepted")
	}
	if got := c.Config(); got != from {
		t.Errorf("config disturbed: %s", got)
	}
	if c.Stats.Reconfigs != 0 {
		t.Errorf("rejected targets counted: %+v", c.Stats)
	}
}
