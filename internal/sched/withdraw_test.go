package sched

import (
	"testing"
	"time"
)

// TestWithdrawJob pins the reconfiguration rebase primitive: unlike
// ExpireJob, WithdrawKey removes permanent reservation entries too, and
// leaves every ledger index consistent.
func TestWithdrawJob(t *testing.T) {
	l := NewLedger(2)
	ref := JobKey{Task: 2, Job: 0}
	placement := []PlacedStage{
		{Stage: 0, Proc: 0, Util: 0.3},
		{Stage: 1, Proc: 1, Util: 0.2},
	}
	if err := l.AddJob(ref, Periodic, placement, true, 0); err != nil {
		t.Fatal(err)
	}
	// Expiry must not touch the permanent reservation...
	if n := l.ExpireJob(ref); n != 0 {
		t.Errorf("ExpireJob removed %d permanent contributions", n)
	}
	if got := l.Util(0); got != onGrid(0.3) {
		t.Errorf("util after expiry attempt = %g", got)
	}
	// ...but withdrawal removes it entirely.
	if n := l.WithdrawKey(ref); n != 2 {
		t.Errorf("WithdrawKey removed %d contributions, want 2", n)
	}
	if got := l.Util(0); got != 0 {
		t.Errorf("util(0) after withdrawal = %g", got)
	}
	if got := l.Util(1); got != 0 {
		t.Errorf("util(1) after withdrawal = %g", got)
	}
	if n := l.WithdrawKey(ref); n != 0 {
		t.Errorf("second withdrawal removed %d", n)
	}
	if n := l.WithdrawKey(JobKey{Task: 0, Job: 9}); n != 0 {
		t.Errorf("unknown-job withdrawal removed %d", n)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWithdrawJobMixedEntries pins withdrawal of a job whose entries are
// partially completed and partially reset.
func TestWithdrawJobMixedEntries(t *testing.T) {
	l := NewLedger(2)
	ref := JobKey{Task: 1, Job: 1}
	placement := []PlacedStage{
		{Stage: 0, Proc: 0, Util: 0.25},
		{Stage: 1, Proc: 1, Util: 0.25},
	}
	if err := l.AddJob(ref, Aperiodic, placement, false, time.Hour); err != nil {
		t.Fatal(err)
	}
	l.MarkComplete(ref, 0)
	if !l.ResetEntry(Entry[JobKey]{Ref: ref, Stage: 0, Proc: 0}) {
		t.Fatal("reset failed")
	}
	// Only the stage-1 entry is still active.
	if n := l.WithdrawKey(ref); n != 1 {
		t.Errorf("WithdrawKey removed %d contributions, want 1", n)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := l.ActiveJobs(); len(got) != 0 {
		t.Errorf("active jobs after withdrawal: %v", got)
	}
}
