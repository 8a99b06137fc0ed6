package core

import (
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
	// pending holds the n completions not yet reported, in chunks that are
	// kept for later completions once reported: a busy processor's set
	// reaches hundreds between idle instants, and grows a chunk at a time
	// without copying.
	pending []*[pendingChunk]completion
	n       int

	// Reports counts idle-resetting reports produced (non-empty only).
	Reports int64
}

// pendingChunk is how many completions a chunk of the pending set holds.
const pendingChunk = 32

// completion is one locally recorded completed subjob.
//
//rtmw:noscan
type completion struct {
	ref       sched.JobKey
	deadline  time.Duration // absolute virtual deadline
	stage     int32
	aperiodic bool
}

// at returns the i-th pending completion.
func (ir *IdleResetter) at(i int) *completion {
	return &ir.pending[i/pendingChunk][i%pendingChunk]
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
		ir.n = 0
	case StrategyPerTask:
		kept := 0
		for i := 0; i < ir.n; i++ {
			if c := ir.at(i); c.aperiodic {
				*ir.at(kept) = *c
				kept++
			}
		}
		ir.n = kept
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
	if ir.n == len(ir.pending)*pendingChunk {
		ir.pending = append(ir.pending, new([pendingChunk]completion))
	}
	*ir.at(ir.n) = completion{ref: ref, deadline: deadline, stage: int32(stage), aperiodic: kind == sched.Aperiodic}
	ir.n++
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
	if ir.n == 0 {
		return buf
	}
	out := buf
	for i := 0; i < ir.n; i++ {
		if c := ir.at(i); c.deadline > now {
			out = append(out, sched.Entry[sched.JobKey]{Ref: c.ref, Stage: int(c.stage), Proc: ir.proc})
		}
	}
	ir.n = 0
	if len(out) > len(buf) {
		ir.Reports++
	}
	return out
}

// PendingCount returns the number of completions waiting to be reported.
func (ir *IdleResetter) PendingCount() int { return ir.n }
