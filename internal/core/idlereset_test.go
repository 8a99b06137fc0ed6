package core

import (
	"testing"
	"time"

	"repro/internal/sched"
)

func TestIdleResetterNone(t *testing.T) {
	ir := NewIdleResetter(StrategyNone, 0)
	ir.Complete(sched.JobKey{Task: 0, Job: 0}, 0, sched.Aperiodic, time.Second)
	if ir.PendingCount() != 0 {
		t.Error("StrategyNone recorded a completion")
	}
	if got := ir.Report(0); got != nil {
		t.Errorf("Report = %v, want nil", got)
	}
}

func TestIdleResetterPerTaskFiltersPeriodic(t *testing.T) {
	ir := NewIdleResetter(StrategyPerTask, 2)
	ir.Complete(sched.JobKey{Task: 0, Job: 0}, 0, sched.Aperiodic, time.Second)
	ir.Complete(sched.JobKey{Task: 3, Job: 0}, 0, sched.Periodic, time.Second)
	if ir.PendingCount() != 1 {
		t.Fatalf("PendingCount = %d, want 1 (aperiodic only)", ir.PendingCount())
	}
	got := ir.Report(0)
	if len(got) != 1 || got[0].Ref.Task != 0 || got[0].Proc != 2 {
		t.Errorf("Report = %v, want single aperiodic entry on proc 2", got)
	}
}

func TestIdleResetterPerJobRecordsBoth(t *testing.T) {
	ir := NewIdleResetter(StrategyPerJob, 0)
	ir.Complete(sched.JobKey{Task: 0, Job: 0}, 0, sched.Aperiodic, time.Second)
	ir.Complete(sched.JobKey{Task: 3, Job: 3}, 1, sched.Periodic, time.Second)
	got := ir.Report(0)
	if len(got) != 2 {
		t.Fatalf("Report = %v, want 2 entries", got)
	}
}

func TestIdleResetterReportsOnce(t *testing.T) {
	ir := NewIdleResetter(StrategyPerJob, 0)
	ir.Complete(sched.JobKey{Task: 0, Job: 0}, 0, sched.Aperiodic, time.Second)
	if got := ir.Report(0); len(got) != 1 {
		t.Fatalf("first Report = %v, want 1 entry", got)
	}
	if got := ir.Report(0); got != nil {
		t.Errorf("second Report = %v, want nil (report once)", got)
	}
	if ir.Reports != 1 {
		t.Errorf("Reports = %d, want 1", ir.Reports)
	}
}

func TestIdleResetterDropsExpired(t *testing.T) {
	ir := NewIdleResetter(StrategyPerJob, 0)
	ir.Complete(sched.JobKey{Task: 0, Job: 0}, 0, sched.Aperiodic, 500*time.Millisecond)
	ir.Complete(sched.JobKey{Task: 1, Job: 0}, 0, sched.Aperiodic, 2*time.Second)
	got := ir.Report(time.Second)
	if len(got) != 1 || got[0].Ref.Task != 1 {
		t.Errorf("Report = %v, want only the unexpired entry", got)
	}
	// An all-expired pending set produces no report and does not bump the
	// report counter.
	ir.Complete(sched.JobKey{Task: 2, Job: 0}, 0, sched.Aperiodic, time.Second)
	if got := ir.Report(2 * time.Second); got != nil {
		t.Errorf("Report of expired-only set = %v, want nil", got)
	}
	if ir.Reports != 1 {
		t.Errorf("Reports = %d, want 1", ir.Reports)
	}
}
