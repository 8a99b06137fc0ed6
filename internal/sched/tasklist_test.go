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
			recs = append(recs, l.findJob(ref))
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
		{"dropped record", func(l *Ledger, recs []*jobRec) { recs[1].nextT = nil }, "does not end at its tail"},
		{"wrong key", func(l *Ledger, recs []*jobRec) { recs[1].key.Job = 7 }, "out of job order"},
		{"wrong task", func(l *Ledger, recs []*jobRec) {
			l.tasks[0], l.tasks[1] = l.tasks[1], l.tasks[0]
		}, "filed in the task list of"},
		// The count stands where the job map's size stood.
		{"miscount", func(l *Ledger, recs []*jobRec) { l.njobs++ }, "task lists hold 4 jobs, the ledger counts 5"},
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

// TestCheckInvariantsAllocatesFlat holds the audit the simulation runs after
// every run to a fixed number of allocations, whatever the number of jobs
// and signature groups it walks: signatures are rendered only into an error,
// and the tallies live on the groups.
func TestCheckInvariantsAllocatesFlat(t *testing.T) {
	const procs = 64
	audit := func(groups int) float64 {
		l := NewLedger(procs)
		n := 0
		for p := 0; p < procs && n < groups; p++ {
			for q := p + 1; q < procs && n < groups; q++ {
				// Two jobs per pair, one of them completed, so the audit
				// walks counted and uncounted members alike.
				for job := int64(0); job < 2; job++ {
					k := JobKey{Task: TaskRef(n), Job: job}
					pl := []PlacedStage{{Stage: 0, Proc: p, Util: 1e-5}, {Stage: 1, Proc: q, Util: 1e-5}}
					if err := l.AddJob(k, Aperiodic, pl, false, time.Hour); err != nil {
						t.Fatal(err)
					}
				}
				l.MarkComplete(JobKey{Task: TaskRef(n), Job: 0}, 0)
				l.MarkComplete(JobKey{Task: TaskRef(n), Job: 0}, 1)
				n++
			}
		}
		if got := len(l.groups); got < groups {
			t.Fatalf("%d signature groups, want %d", got, groups)
		}
		return testing.AllocsPerRun(5, func() {
			if err := l.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := audit(1000), audit(2000)
	if small != large || small > 4 {
		t.Errorf("auditing 1000 groups allocates %v times and 2000 groups %v, want the same few", small, large)
	}
}
