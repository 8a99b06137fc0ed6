package sched

import (
	"testing"
	"time"
)

// TestLedgerWorkCounts follows the work counts through four operations: a
// first admission (a chunk of records and a group from the heap), one whose
// scan passes the first group by the skip and whose commit moves its sum,
// a refusal whose scan sums a group past the skip, and an expiry whose
// falling term moves both groups' sums.
func TestLedgerWorkCounts(t *testing.T) {
	l := NewLedger(2)
	var w Work
	l.CountWork(&w)
	admit := func(job int64, placement ...PlacedStage) bool {
		ok, err := l.TestAndAddKey(JobKey{Task: TaskRef(job), Job: job}, Aperiodic, placement, false, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if !admit(0, PlacedStage{Stage: 0, Proc: 0, Util: 0.2}) {
		t.Fatal("first job refused")
	}
	if !admit(1, PlacedStage{Stage: 0, Proc: 0, Util: 0.1}, PlacedStage{Stage: 1, Proc: 1, Util: 0.1}) {
		t.Fatal("second job refused")
	}
	// Its own term fits (f(0.55) ≈ 0.89), but the second job's sum would
	// reach ≈ 1.25.
	if admit(2, PlacedStage{Stage: 0, Proc: 1, Util: 0.45}) {
		t.Fatal("third job admitted")
	}
	if n := l.ExpireJob(JobKey{Task: 0, Job: 0}); n != 1 {
		t.Fatalf("expiry removed %d contributions, want 1", n)
	}
	want := Work{GroupsMet: 2, GroupsPassed: 1, GroupsSummed: 1, SumMovesUp: 1, SumMovesDown: 2, RecsAllocated: poolChunk, GroupsAllocated: 2}
	if w != want {
		t.Errorf("work %+v, want %+v", w, want)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
