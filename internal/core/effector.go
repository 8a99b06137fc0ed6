package core

import (
	"time"

	"repro/internal/sched"
)

// perTask is the one statement of the TE's "Per-task" attribute for a task
// of kind k under c. held is the hold rule: the AC tests such a task once,
// at its first arrival, so until that decision lands the task has one
// outstanding request and its other jobs wait behind it. cached says the
// decision then settles every later job without a round trip, unless the
// LB re-places each job.
func (c Config) perTask(k sched.TaskKind) (held, cached bool) {
	held = k == sched.Periodic && c.AC == StrategyPerTask
	return held, held && c.LB != StrategyPerJob
}

// ActionKind is what a task effector does with one job.
type ActionKind uint8

const (
	// ActHold keeps the job waiting behind its task's outstanding request.
	ActHold ActionKind = iota
	// ActRequest pushes a "Task Arrive" event for the job to the AC.
	ActRequest
	// ActRelease releases the job on Placement.
	ActRelease
	// ActSkip settles the job as not released.
	ActSkip
)

// Action is one step a binding carries out for job Job, which arrived at
// Arrival.
type Action struct {
	Kind      ActionKind
	Job       int64
	Arrival   time.Duration
	Placement []sched.PlacedStage
}

// Admission is the action's immediate resolution of an arrival, as Submit
// reports it.
func (a Action) Admission(task string) Admission {
	adm := Admission{Task: task, Job: a.Job, Outcome: AdmissionPending, Reason: "admission decision round trip in flight"}
	switch a.Kind {
	case ActRelease:
		adm.Outcome, adm.Reason, adm.Placement = AdmissionAccepted, "", a.Placement
	case ActSkip:
		adm.Outcome, adm.Reason = AdmissionRejected, "per-task admission decision cached as rejected"
	}
	return adm
}

// waitingJob is a job awaiting a decision: its own, or (own false) its
// task's outstanding request under the hold rule.
type waitingJob struct {
	job     int64
	arrival time.Duration
	own     bool
}

// Effector is the task effector's state machine for one task (paper
// Section 5): arrivals, decisions and epochs in; release, skip, request and
// hold out. The simulation turns its actions into des events, the live TE
// into pushes. Every arrival settles exactly once even when messages are
// lost or repeated: a decision for a job that is not waiting is ignored, a
// lost request skips the jobs waiting on it, and a decision made under
// another epoch settles its own job but never becomes the task's policy.
// It is not safe for concurrent use, and must not be copied after its
// first Epoch.
type Effector struct {
	epoch int64
	held  bool
	// decided is set by the epoch's first decision under the hold rule; if
	// it may be cached, cached is the kind of action (release on placement,
	// or skip) that settles later jobs, and ActHold means none. requested
	// marks the task's one outstanding request, for job reqJob.
	decided   bool
	cached    ActionKind
	requested bool
	placement []sched.PlacedStage
	reqJob    int64
	// waiting lists the jobs awaiting a decision in arrival order. It lives
	// in buf while at most one job waits, so that costs no allocation.
	waiting []waitingJob
	buf     [1]waitingJob
}

// Epoch enters a reconfiguration epoch under cfg, for a task of kind k:
// the task's decision is forgotten; the jobs waiting keep waiting.
func (e *Effector) Epoch(epoch int64, cfg Config, k sched.TaskKind) {
	e.epoch, e.decided, e.cached, e.placement = epoch, false, ActHold, nil
	e.held, _ = cfg.perTask(k)
	if e.waiting == nil {
		e.waiting = e.buf[:0]
	}
}

// Cached returns the action that settles the task's arrivals without a
// round trip, if there is one.
func (e *Effector) Cached() (Action, bool) {
	return Action{Kind: e.cached, Placement: e.placement}, e.cached != ActHold
}

// Waiting reports how many jobs await a decision.
func (e *Effector) Waiting() int { return len(e.waiting) }

// Arrive takes job, arrived at arrival, and returns what to do with it: a
// cached decision settles it; under the hold rule it waits behind the
// task's one outstanding request, making that request if there is none;
// otherwise it requests its own decision.
func (e *Effector) Arrive(job int64, arrival time.Duration) Action {
	a := Action{Kind: e.cached, Job: job, Arrival: arrival, Placement: e.placement}
	if a.Kind != ActHold {
		return a
	}
	a.Kind = ActRequest
	held := e.held && !e.decided
	e.waiting = append(e.waiting, waitingJob{job: job, arrival: arrival, own: !held})
	if held {
		if e.requested {
			a.Kind = ActHold
		} else {
			e.requested, e.reqJob = true, job
		}
	}
	return a
}

// Decided applies decision d for job, made under epoch, and appends the
// actions it causes to out. cache is the decide step's verdict on whether d
// may become the task's policy. The answer to the task's outstanding
// request decides the task when it is current and the hold rule still
// applies, settling every held job; otherwise it settles its own job, and
// the jobs held behind it arrive again.
func (e *Effector) Decided(job int64, d Decision, cache bool, epoch int64, out []Action) []Action {
	if !e.requested || job != e.reqJob {
		return e.settleOwn(out, job, d)
	}
	e.requested = false
	if epoch != e.epoch || !e.held {
		out = append(out, settle(e.take(e.find(job, false)), d))
		var held []waitingJob
		e.filterHeld(func(w waitingJob) { held = append(held, w) })
		for _, w := range held {
			if a := e.Arrive(w.job, w.arrival); a.Kind != ActHold {
				out = append(out, a)
			}
		}
		return out
	}
	e.decided = true
	if cache {
		a := settle(waitingJob{}, d)
		e.cached, e.placement = a.Kind, a.Placement
	}
	e.filterHeld(func(w waitingJob) { out = append(out, settle(w, d)) })
	return out
}

// Lost reports that the request for job will never be answered (its push
// failed, or it waited past every deadline): the jobs waiting on it are
// skipped, and the task may request again.
func (e *Effector) Lost(job int64, out []Action) []Action {
	if !e.requested || job != e.reqJob {
		return e.settleOwn(out, job, Decision{})
	}
	e.requested = false
	e.filterHeld(func(w waitingJob) { out = append(out, settle(w, Decision{})) })
	return out
}

// Expire declares lost every request for a job that arrived before
// horizon, and appends the skips to out.
func (e *Effector) Expire(horizon time.Duration, out []Action) []Action {
	if e.requested && e.waiting[e.find(e.reqJob, false)].arrival < horizon {
		out = e.Lost(e.reqJob, out)
	}
	for i := 0; i < len(e.waiting); {
		if w := e.waiting[i]; w.own && w.arrival < horizon {
			out = append(out, settle(e.take(i), Decision{}))
		} else {
			i++
		}
	}
	return out
}

// settleOwn settles job with d if it awaits its own decision.
func (e *Effector) settleOwn(out []Action, job int64, d Decision) []Action {
	if i := e.find(job, true); i >= 0 {
		out = append(out, settle(e.take(i), d))
	}
	return out
}

// filterHeld takes the held jobs out, in order, handing each to fn.
func (e *Effector) filterHeld(fn func(waitingJob)) {
	kept := e.waiting[:0]
	for _, w := range e.waiting {
		if w.own {
			kept = append(kept, w)
		} else {
			fn(w)
		}
	}
	e.setWaiting(kept)
}

// settle is the action that settles w with d.
func settle(w waitingJob, d Decision) Action {
	if d.Accept {
		return Action{Kind: ActRelease, Job: w.job, Arrival: w.arrival, Placement: d.Placement}
	}
	return Action{Kind: ActSkip, Job: w.job, Arrival: w.arrival}
}

// find returns the position of job among the waiting jobs with the given
// own flag, or -1; decisions mostly come back in request order.
func (e *Effector) find(job int64, own bool) int {
	for i, w := range e.waiting {
		if w.job == job && w.own == own {
			return i
		}
	}
	return -1
}

// take removes and returns the waiting job at position i.
func (e *Effector) take(i int) waitingJob {
	w := e.waiting[i]
	if i == 0 && len(e.waiting) > len(e.buf) {
		// A long queue drains from the front without shifting.
		e.setWaiting(e.waiting[1:])
	} else {
		e.setWaiting(append(e.waiting[:i], e.waiting[i+1:]...))
	}
	return w
}

// setWaiting installs w, returning to buf once it is empty.
func (e *Effector) setWaiting(w []waitingJob) {
	if len(w) == 0 {
		w = e.buf[:0]
	}
	e.waiting = w
}
