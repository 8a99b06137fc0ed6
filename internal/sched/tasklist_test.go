package sched

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestRemoveTaskWithdrawsInJobOrder pins what the per-task list must not
// change: RemoveTask withdraws in ascending job number whatever order the jobs
// were added in (the list is newest first), so it leaves the utilizations
// bit-identical to withdrawing the jobs one by one in that order. A bystander
// task keeps every processor away from zero, where the residue would be
// clamped; and the amounts must be such that the order shows, which the last
// check holds the test itself to.
func TestRemoveTaskWithdrawsInJobOrder(t *testing.T) {
	// Five jobs of one task whose stages share processors, with amounts that
	// do not sum exactly in binary floating point: the order they are
	// subtracted in decides the residue left on each processor.
	fiveJobs := []struct {
		job int64
		pl  []PlacedStage
	}{
		{0, []PlacedStage{{Stage: 0, Proc: 0, Util: 0.1}, {Stage: 1, Proc: 1, Util: 0.7}}},
		{1, []PlacedStage{{Stage: 0, Proc: 0, Util: 0.2}, {Stage: 1, Proc: 2, Util: 1e-17}}},
		{2, []PlacedStage{{Stage: 0, Proc: 1, Util: 0.3}, {Stage: 1, Proc: 0, Util: 1e-9}}},
		{3, []PlacedStage{{Stage: 0, Proc: 2, Util: 0.1}, {Stage: 1, Proc: 1, Util: 0.3}}},
		{4, []PlacedStage{{Stage: 0, Proc: 0, Util: 0.3}, {Stage: 1, Proc: 2, Util: 0.6}}},
	}
	build := func(order []int) *Ledger {
		l := NewLedger(3)
		for p := 0; p < 3; p++ {
			if err := l.AddJob(JobRef{Task: "stay", Job: int64(p)}, Aperiodic, []PlacedStage{{Stage: 0, Proc: p, Util: 0.07}}, false, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range order {
			j := fiveJobs[i]
			if err := l.AddJob(JobRef{Task: "go", Job: j.job}, Aperiodic, j.pl, false, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		return l
	}
	sameBits := func(a, b *Ledger) bool {
		for p := range a.util {
			if math.Float64bits(a.util[p]) != math.Float64bits(b.util[p]) {
				return false
			}
		}
		return true
	}
	orderShows := false
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 4, 0, 3, 1}, {1, 0, 4, 2, 3}} {
		removed, oneByOne, listOrder := build(order), build(order), build(order)
		if got := removed.RemoveTask("go"); got != 10 {
			t.Fatalf("order %v: RemoveTask withdrew %d contributions, want 10", order, got)
		}
		for job := int64(0); job < 5; job++ {
			oneByOne.WithdrawJob(JobRef{Task: "go", Job: job})
		}
		for i := len(order) - 1; i >= 0; i-- {
			listOrder.WithdrawJob(JobRef{Task: "go", Job: fiveJobs[order[i]].job})
		}
		if !sameBits(removed, oneByOne) {
			t.Errorf("order %v: RemoveTask left %v, withdrawing in job order leaves %v", order, removed.Utils(), oneByOne.Utils())
		}
		if !sameBits(removed, listOrder) {
			orderShows = true
		}
		if err := removed.CheckInvariants(); err != nil {
			t.Fatalf("order %v after RemoveTask: %v", order, err)
		}
		if removed.RemoveTask("go") != 0 {
			t.Errorf("order %v: a second RemoveTask found jobs", order)
		}
	}
	if !orderShows {
		t.Error("withdrawing newest first leaves the same bits as job order for every insertion order: the amounts do not tell the orders apart")
	}
}

// TestCheckInvariantsAuditsTaskLists corrupts the per-task list each way the
// audit names and requires CheckInvariants to say so.
func TestCheckInvariantsAuditsTaskLists(t *testing.T) {
	build := func() (*Ledger, []*jobRec) {
		l := NewLedger(2)
		var recs []*jobRec
		for job := int64(0); job < 3; job++ {
			ref := JobRef{Task: "a", Job: job}
			if err := l.AddJob(ref, Aperiodic, []PlacedStage{{Stage: 0, Proc: 0, Util: 0.01}}, false, time.Hour); err != nil {
				t.Fatal(err)
			}
			rec, _ := l.lookupJob(ref)
			recs = append(recs, rec)
		}
		if err := l.AddJob(JobRef{Task: "b", Job: 0}, Aperiodic, []PlacedStage{{Stage: 0, Proc: 1, Util: 0.01}}, false, time.Hour); err != nil {
			t.Fatal(err)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return l, recs
	}
	for _, tc := range []struct {
		name    string
		corrupt func(l *Ledger, recs []*jobRec)
		want    string
	}{
		{"back link", func(l *Ledger, recs []*jobRec) { recs[0].prevT = recs[2] }, "wrong back link"},
		// The walk ends: a record met twice has a second predecessor.
		{"cycle", func(l *Ledger, recs []*jobRec) { recs[0].nextT = recs[2] }, "wrong back link"},
		{"dropped record", func(l *Ledger, recs []*jobRec) { recs[1].nextT = nil }, "task lists hold 3 jobs, job map holds 4"},
		{"wrong key", func(l *Ledger, recs []*jobRec) { recs[1].key.Job = 7 }, "does not match job map"},
		{"wrong task", func(l *Ledger, recs []*jobRec) {
			b, _ := l.lookupJob(JobRef{Task: "b", Job: 0})
			l.taskHead[b.key.Task], l.taskHead[recs[0].key.Task] = l.taskHead[recs[0].key.Task], b
		}, "does not match job map"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, recs := build()
			tc.corrupt(l, recs)
			err := l.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
