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
	if rec, ok := l.jobs[k]; ok {
		l.markComplete(rec, stage)
	}
}

// ResetEntry applies the idle resetting rule to a single reported
// contribution: if the entry is known, completed, and still active, its
// contribution is removed. It returns true if utilization was released.
func (l *Ledger) ResetEntry(r Entry[JobKey]) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.jobs[r.Ref]
	return ok && l.resetEntry(rec, r.Stage, r.Proc)
}

// CompletedOn returns the completed, still-active, non-permanent
// contributions on the given processor, optionally restricted to aperiodic
// tasks, ordered by job key and stage: what an idle resetter would report.
func (l *Ledger) CompletedOn(proc int, includePeriodic bool) []Entry[JobKey] {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Entry[JobKey]
	for _, rec := range l.jobs {
		for _, e := range rec.entries {
			if e.proc != proc || !e.completed || e.removed != 0 || e.permanent || (!includePeriodic && e.kind == Periodic) {
				continue
			}
			out = append(out, Entry[JobKey]{Ref: e.key, Stage: e.stage, Proc: e.proc})
		}
	}
	slices.SortFunc(out, func(a, b Entry[JobKey]) int {
		return cmp.Or(a.Ref.compare(b.Ref), cmp.Compare(a.Stage, b.Stage))
	})
	return out
}
