package core

import (
	"slices"
	"time"

	"repro/internal/sched"
)

// IdleResetter is the per-processor IR component's bookkeeping: it records
// subjob completions reported by the local F/I and Last Subtask components
// and, when the processor goes idle, produces the "Idle Resetting" report
// for the admission controller.
//
// Per Section 4.3, the idle detector "only reports when there is a newly
// completed ... subjob whose deadline has not expired": reported entries are
// forgotten so they are never reported twice, and expired entries are
// dropped (their contribution is removed by deadline expiry on the AC side
// anyway).
//
// Jobs are named by sched.JobKey on both bindings.
//
// IdleResetter is not safe for concurrent use; each binding confines one
// instance to its processor's execution context.
type IdleResetter struct {
	strategy Strategy
	proc     int
	pending  []completion

	// Reports counts idle-resetting reports produced (non-empty only).
	Reports int64
}

// pendingChunk is the least room the pending set grows by.
const pendingChunk = 16

// completion is one locally recorded completed subjob.
type completion struct {
	ref      sched.JobKey
	stage    int
	kind     sched.TaskKind
	deadline time.Duration // absolute virtual deadline
}

// NewIdleResetter returns an IR component for the given processor using the
// given strategy. With StrategyNone, Complete and Report do nothing.
func NewIdleResetter(strategy Strategy, proc int) *IdleResetter {
	return &IdleResetter{strategy: strategy, proc: proc}
}

// Strategy returns the resetter's configured strategy.
func (ir *IdleResetter) Strategy() Strategy { return ir.strategy }

// SetStrategy hot-swaps the resetting rule during a reconfiguration. The
// pending set is refiltered under the new rule so the next Report never
// leaks a completion the new strategy would not have recorded: switching to
// per-task drops pending periodic subjobs, switching to none drops
// everything.
func (ir *IdleResetter) SetStrategy(s Strategy) {
	if s == ir.strategy {
		return
	}
	ir.strategy = s
	switch s {
	case StrategyNone:
		ir.pending = ir.pending[:0]
	case StrategyPerTask:
		kept := ir.pending[:0]
		for _, c := range ir.pending {
			if c.kind == sched.Aperiodic {
				kept = append(kept, c)
			}
		}
		ir.pending = kept
	case StrategyPerJob:
		// Everything already pending stays reportable.
	}
}

// Complete records a subjob completion from a local subtask component. Under
// StrategyNone nothing is recorded. Under StrategyPerTask only aperiodic
// subjobs are recorded ("the idle resetting component is notified when
// aperiodic subjobs complete"); under StrategyPerJob both kinds are.
func (ir *IdleResetter) Complete(ref sched.JobKey, stage int, kind sched.TaskKind, deadline time.Duration) {
	switch ir.strategy {
	case StrategyNone:
		return
	case StrategyPerTask:
		if kind != sched.Aperiodic {
			return
		}
	case StrategyPerJob:
		// Record everything.
	}
	if len(ir.pending) == cap(ir.pending) {
		// Grow by a chunk at least: a busy processor's set reaches tens of
		// completions between idle instants.
		ir.pending = slices.Grow(ir.pending, pendingChunk)
	}
	ir.pending = append(ir.pending, completion{ref: ref, stage: stage, kind: kind, deadline: deadline})
}

// Report returns the entries to push to the admission controller now that
// the processor is idle, dropping entries whose deadlines already expired.
// The pending set is cleared: each completion is reported at most once. A
// nil result means there is nothing new to report and no event should be
// pushed.
func (ir *IdleResetter) Report(now time.Duration) []sched.Entry[sched.JobKey] {
	return ir.ReportInto(now, nil)
}

// ReportInto is Report appending into a caller-provided buffer, so a binding
// that recycles report buffers (the simulation's idle-report pool) produces
// reports without allocating. Semantics are identical to Report: buf is
// returned unchanged when there is nothing pending, and the Reports counter
// only advances when entries were produced.
func (ir *IdleResetter) ReportInto(now time.Duration, buf []sched.Entry[sched.JobKey]) []sched.Entry[sched.JobKey] {
	if len(ir.pending) == 0 {
		return buf
	}
	out := buf
	for _, c := range ir.pending {
		if c.deadline <= now {
			continue
		}
		out = append(out, sched.Entry[sched.JobKey]{Ref: c.ref, Stage: c.stage, Proc: ir.proc})
	}
	ir.pending = ir.pending[:0]
	if len(out) > len(buf) {
		ir.Reports++
	}
	return out
}

// PendingCount returns the number of completions waiting to be reported.
func (ir *IdleResetter) PendingCount() int { return len(ir.pending) }
