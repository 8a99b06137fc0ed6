package sched

import (
	"strings"
	"testing"
	"time"
)

// TestCheckInvariantsAuditsTaskLists corrupts the per-task list each way the
// audit names and requires CheckInvariants to say so.
func TestCheckInvariantsAuditsTaskLists(t *testing.T) {
	build := func() (*Ledger, []int32) {
		l := NewLedger(2)
		var recs []int32
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
		corrupt func(l *Ledger, recs []int32)
		want    string
	}{
		{"back link", func(l *Ledger, recs []int32) { l.rec(recs[0]).prevT = recs[2] }, "wrong back link"},
		// The walk ends: a record met twice has a second predecessor.
		{"cycle", func(l *Ledger, recs []int32) { l.rec(recs[0]).nextT = recs[2] }, "wrong back link"},
		{"dropped record", func(l *Ledger, recs []int32) { l.rec(recs[1]).nextT = 0 }, "does not end at its tail"},
		{"wrong key", func(l *Ledger, recs []int32) { l.rec(recs[1]).key.Job = 7 }, "out of job order"},
		{"wrong task", func(l *Ledger, recs []int32) {
			l.tasks[0], l.tasks[1] = l.tasks[1], l.tasks[0]
		}, "filed in the task list of"},
		// The count stands where the job map's size stood.
		{"miscount", func(l *Ledger, recs []int32) { l.njobs++ }, "task lists hold 4 jobs, the ledger counts 5"},
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

// TestCheckInvariantsAuditsSlabs corrupts the record and group slabs each way
// the slot accounting names — a live slot freed, a free slot lost, a free
// list looped, a freed group left in a processor's index — and requires
// CheckInvariants to say so.
func TestCheckInvariantsAuditsSlabs(t *testing.T) {
	build := func() *Ledger {
		l := NewLedger(3)
		for job := int64(0); job < 4; job++ {
			pl := []PlacedStage{{Stage: 0, Proc: int(job) % 3, Util: 0.01}, {Stage: 1, Proc: 2, Util: 0.01}}
			if err := l.AddJob(JobKey{Task: TaskRef(job), Job: job}, Aperiodic, pl, false, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		// Retire job 2 so its record and its group {2:2} sit on the free
		// lists.
		l.ExpireJob(JobKey{Task: 2, Job: 2})
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if l.freeRec == 0 || l.freeGroup == 0 {
			t.Fatal("no free record or group to corrupt")
		}
		return l
	}
	for _, tc := range []struct {
		name    string
		corrupt func(l *Ledger)
		want    string
	}{
		// Job 0 is alone in its task's list, and its group alone on its hash
		// chain: linked in at the end of a free list, each keeps its links
		// (0) and its index intact, so only the slot accounting can tell.
		{"live record freed", func(l *Ledger) {
			last := l.freeRec
			for l.rec(last).nextT != 0 {
				last = l.rec(last).nextT
			}
			l.rec(last).nextT = l.findJob(JobKey{Task: 0, Job: 0})
		}, "free list holds slot"},
		{"free record lost", func(l *Ledger) { l.freeRec = l.rec(l.freeRec).nextT }, "records listed and"},
		{"record free list loops", func(l *Ledger) { l.rec(l.freeRec).nextT = l.freeRec }, "(cycle)"},
		{"live group freed", func(l *Ledger) {
			last := l.freeGroup
			for l.group(last).next != 0 {
				last = l.group(last).next
			}
			l.group(last).next = l.rec(l.findJob(JobKey{Task: 0, Job: 0})).group
		}, "registered and on the free list"},
		{"free group lost", func(l *Ledger) { l.freeGroup = l.group(l.freeGroup).next }, "groups registered and"},
		{"freed group still indexed", func(l *Ledger) {
			l.procGroups[0] = append(l.procGroups[0], groupRef{l.freeGroup, 1})
		}, "holds unregistered group slot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := build()
			tc.corrupt(l)
			err := l.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
