package sched

import (
	"cmp"
	"slices"
)

// The granular ledger operations the tests drive: the bindings apply an idle
// report only through ResetReported, which is MarkComplete then ResetEntry
// in one critical section, and no binding reads the completed entries.

// MarkComplete records that the subjob of the given stage finished
// executing, making its contribution eligible for idle resetting. Unknown
// jobs are ignored.
func (l *Ledger) MarkComplete(k JobKey, stage int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r := l.findJob(k); r != 0 {
		l.markComplete(r, stage)
	}
}

// ResetEntry applies the idle resetting rule to a single reported
// contribution: if the entry is known, completed, and still active, its
// contribution is removed. It returns true if utilization was released.
func (l *Ledger) ResetEntry(r Entry[JobKey]) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.findJob(r.Ref)
	return rec != 0 && l.resetEntry(rec, r.Stage, r.Proc)
}

// CompletedOn returns the completed, still-active, non-permanent
// contributions on the given processor, optionally restricted to aperiodic
// tasks, ordered by job key and stage: what an idle resetter would report.
func (l *Ledger) CompletedOn(proc int, includePeriodic bool) []Entry[JobKey] {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Entry[JobKey]
	for _, t := range l.tasks {
		for r := t.head; r != 0; r = l.rec(r).nextT {
			for _, e := range l.entries(r) {
				if rec := l.rec(r); int(e.proc) != proc || !e.completed || e.removed || rec.permanent || (!includePeriodic && rec.periodic) {
					continue
				}
				out = append(out, Entry[JobKey]{Ref: l.rec(r).key, Stage: e.stage, Proc: proc})
			}
		}
	}
	slices.SortFunc(out, func(a, b Entry[JobKey]) int {
		return cmp.Or(a.Ref.compare(b.Ref), cmp.Compare(a.Stage, b.Stage))
	})
	return out
}

// onGrid is the utilization the ledger holds for a stage of C/D u: u rounded
// up to the ledger's unit. Tests compare Util to it exactly.
func onGrid(u float64) float64 {
	n, _ := toUnits(u)
	return fromUnits(n)
}
