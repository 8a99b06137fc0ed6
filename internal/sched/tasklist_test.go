package sched

import (
	"strings"
	"testing"
	"time"
)

// TestCheckInvariantsAuditsTaskLists corrupts the per-task list each way the
// audit names and requires CheckInvariants to say so.
func TestCheckInvariantsAuditsTaskLists(t *testing.T) {
	build := func() (*Ledger, []*jobRec) {
		l := NewLedger(2)
		var recs []*jobRec
		for job := int64(0); job < 3; job++ {
			ref := JobKey{Task: 0, Job: job}
			if err := l.AddJob(ref, Aperiodic, []PlacedStage{{Stage: 0, Proc: 0, Util: 0.01}}, false, time.Hour); err != nil {
				t.Fatal(err)
			}
			rec := l.jobs[ref]
			recs = append(recs, rec)
		}
		if err := l.AddJob(JobKey{Task: 1, Job: 0}, Aperiodic, []PlacedStage{{Stage: 0, Proc: 1, Util: 0.01}}, false, time.Hour); err != nil {
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
			b := l.jobs[JobKey{Task: 1, Job: 0}]
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
