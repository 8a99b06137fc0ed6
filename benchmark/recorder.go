package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// binding is the part of the rtmw.Binding surface the benchmark drives. Both
// *cluster.Cluster and *core.SimSystem satisfy it; the unit tests substitute
// a fake.
type binding interface {
	Submit(taskID string) (core.Admission, error)
	Watch(opts core.WatchOptions) (*core.WatchStream, error)
	Snapshot() core.BindingSnapshot
	Reconfigure(cfg core.Config) (*core.ReconfigReport, error)
	AddTasks(tasks []*sched.Task) error
	RemoveTasks(ids []string) error
	Stop() error
}

// Job phases: a record the submitter has not registered is phaseNone, so an
// event for a job nobody submitted is recognisable.
const (
	phaseNone uint8 = iota
	phaseWarmup
	phaseMeasured
)

// jobTimeout is how long a closed-loop job may stay without a terminal event
// before its token is reclaimed and the job counts as failed. It is also the
// longest the settle phase waits for stragglers.
const jobTimeout = 2 * time.Second

// jobRec is the per-job timestamp record. All instants are nanoseconds since
// the recorder's base; zero means "not yet".
type jobRec struct {
	due       int64 // when the job was due (open loop) or its token was taken
	submitted int64 // Submit called
	returned  int64 // Submit returned (traced slices and synchronous outcomes)
	decided   int64 // the submitter knew the outcome
	completed int64 // WatchCompleted received

	outcome     core.AdmissionOutcome
	phase       uint8
	decisions   uint8 // WatchAdmitted/WatchRejected events seen
	completions uint8 // WatchCompleted events seen
	terminal    bool  // rejected, completed or timed out: counted once
	timedOut    bool
	missed      bool
}

// recorder holds every job's timestamps in per-task arrays indexed by the
// job number the binding assigned. The submitter goroutine and the watch
// consumer goroutine both write to it, under one mutex; a terminal event may
// overtake the submitter's own registration of the job, so neither side
// assumes the other came first.
type recorder struct {
	base    time.Time
	taskIdx map[string]int // read-only after newRecorder

	mu         sync.Mutex
	jobs       [][]jobRec
	registered int // jobs the submitter registered
	terminal   int // jobs that reached a terminal state
	submitErrs int // Submit calls that returned an error (no record kept)

	lastSeq        int64
	seqRegressions int

	// tokens is the closed-loop window: one token per allowed outstanding
	// job. The consumer returns a token on each job's first terminal event;
	// on open-loop runs nobody takes them and the returns fall on the floor.
	tokens chan struct{}
}

func newRecorder(tasks []string, window, jobsHint int) *recorder {
	r := &recorder{
		base:    time.Now().Add(-time.Millisecond),
		taskIdx: make(map[string]int, len(tasks)),
		jobs:    make([][]jobRec, len(tasks)),
		tokens:  make(chan struct{}, window),
	}
	for i, id := range tasks {
		r.taskIdx[id] = i
		r.jobs[i] = make([]jobRec, 0, jobsHint/len(tasks)+64)
	}
	for i := 0; i < window; i++ {
		r.tokens <- struct{}{}
	}
	return r
}

// now is the recorder's clock: monotonic nanoseconds since base, never zero.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// at converts a wall instant to the recorder's clock.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

// rec returns the record of job number job of task ti, growing the array.
// Callers hold mu.
func (r *recorder) rec(ti int, job int64) *jobRec {
	for int64(len(r.jobs[ti])) <= job {
		r.jobs[ti] = append(r.jobs[ti], jobRec{})
	}
	return &r.jobs[ti][job]
}

// settle marks a job terminal once and returns its window token. Callers
// hold mu.
func (r *recorder) settle(j *jobRec) {
	if j.terminal {
		return
	}
	j.terminal = true
	r.terminal++
	select {
	case r.tokens <- struct{}{}:
	default:
	}
}

// consume drains a watch stream into the recorder until the stream closes.
func (r *recorder) consume(events <-chan core.WatchEvent, done chan<- struct{}) {
	for ev := range events {
		r.observe(ev, r.now())
	}
	close(done)
}

// observe applies one watch event received at instant now.
func (r *recorder) observe(ev core.WatchEvent, now int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ev.Seq <= r.lastSeq {
		r.seqRegressions++
	}
	r.lastSeq = ev.Seq
	ti, ok := r.taskIdx[ev.Task]
	if !ok || ev.Job < 0 {
		return
	}
	j := r.rec(ti, ev.Job)
	switch ev.Kind {
	case core.WatchAdmitted:
		j.decisions++
		j.outcome = core.AdmissionAccepted
		if j.decided == 0 {
			j.decided = now
		}
	case core.WatchRejected:
		j.decisions++
		j.outcome = core.AdmissionRejected
		if j.decided == 0 {
			j.decided = now
		}
		r.settle(j)
	case core.WatchCompleted:
		j.completions++
		if j.completed == 0 {
			j.completed = now
		}
		r.settle(j)
	case core.WatchDeadlineMiss:
		j.missed = true
	}
}

// register files the submitter's side of one Submit call. A synchronous
// outcome (the per-task cached path) is the decision: the submitter knew it
// when Submit returned, whatever the watch stream says later.
func (r *recorder) register(ti int, adm core.Admission, err error, phase uint8, due, submitted, returned int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil || adm.Job < 0 {
		// No usable job number: nothing will ever answer this call, so its
		// token comes straight back.
		r.submitErrs++
		select {
		case r.tokens <- struct{}{}:
		default:
		}
		return
	}
	j := r.rec(ti, adm.Job)
	j.phase = phase
	j.due, j.submitted, j.returned = due, submitted, returned
	r.registered++
	switch adm.Outcome {
	case core.AdmissionAccepted:
		j.outcome = core.AdmissionAccepted
		j.decided = returned
	case core.AdmissionRejected:
		j.outcome = core.AdmissionRejected
		j.decided = returned
		r.settle(j)
	}
}

// outstanding is the number of registered jobs without a terminal state.
func (r *recorder) outstanding() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.registered - r.terminal
}

// expire times out every registered job that was submitted before cutoff and
// has no terminal state, and returns how many: the caller keeps their tokens.
// It is the slow path of the closed loop, so a full scan is fine.
func (r *recorder) expire(cutoff int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for ti := range r.jobs {
		for k := range r.jobs[ti] {
			j := &r.jobs[ti][k]
			if j.phase != phaseNone && !j.terminal && j.submitted < cutoff {
				j.timedOut = true
				j.terminal = true
				r.terminal++
				n++
			}
		}
	}
	return n
}

// jobStats is what one measured window's records add up to.
type jobStats struct {
	Attempted int // jobs submitted in the measured phase (including errors)
	Decided   int // jobs whose outcome the submitter learned
	Accepted  int
	Completed int // accepted jobs with a completion
	Missed    int
	Failed    int // submit errors, timeouts, lost decisions, lost completions

	// Latency samples in microseconds.
	Decision   []float64 // due → decision known
	Completion []float64 // due → completed (accepted jobs)
	Lag        []float64 // due → Submit called
	Submit     []float64 // Submit called → returned (traced slices)
	Wait       []float64 // Submit returned → decision known (traced slices)
	Execute    []float64 // decision known → completed (accepted jobs)

	// Slices are the measured window cut at the generator's marks.
	Slices []sliceStats

	// Violations are correctness failures, one line each.
	Violations []string
}

// sliceStats is one slice of the measured window: how long it was, what the
// process spent in it, how many jobs were decided in it, and the latencies of
// the jobs that were due in it.
type sliceStats struct {
	Traced     bool
	Dur        time.Duration
	CPU        time.Duration
	Decided    int
	Decision   []float64
	Completion []float64
}

// sliceOf finds the slice an instant falls in, or -1 outside the window.
func sliceOf(marks []mark, at int64) int {
	if len(marks) < 2 || at < marks[0].at || at >= marks[len(marks)-1].at {
		return -1
	}
	return sort.Search(len(marks), func(i int) bool { return marks[i].at > at }) - 1
}

const usPerNs = 1e-3

// collect sums the measured-phase records, over the whole window and per
// slice between the generator's marks. It is called once the run has settled
// and the watch stream is drained.
func (r *recorder) collect(tasks []string, marks []mark) jobStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s jobStats
	for k := 0; k+1 < len(marks); k++ {
		s.Slices = append(s.Slices, sliceStats{
			Traced: marks[k].traced,
			Dur:    time.Duration(marks[k+1].at - marks[k].at), CPU: marks[k+1].cpu - marks[k].cpu,
		})
	}
	s.Attempted = r.submitErrs
	s.Failed = r.submitErrs
	violate := func(format string, args ...any) {
		if len(s.Violations) < 20 {
			s.Violations = append(s.Violations, fmt.Sprintf(format, args...))
		}
	}
	if r.submitErrs > 0 {
		violate("%d Submit calls returned an error", r.submitErrs)
	}
	if r.seqRegressions > 0 {
		violate("watch Seq went backwards or repeated %d times", r.seqRegressions)
	}
	for ti := range r.jobs {
		for k := range r.jobs[ti] {
			j := &r.jobs[ti][k]
			if j.phase == phaseNone && (j.decisions > 0 || j.completions > 0) {
				violate("%s#%d: events for a job nobody submitted", tasks[ti], k)
			}
			if j.phase != phaseMeasured {
				continue
			}
			s.Attempted++
			failed := j.timedOut
			if j.decisions > 1 {
				violate("%s#%d: %d admission decisions", tasks[ti], k, j.decisions)
			}
			if j.completions > 1 {
				violate("%s#%d: completed %d times", tasks[ti], k, j.completions)
			}
			if j.decided == 0 {
				violate("%s#%d: lost, no admission decision", tasks[ti], k)
				failed = true
			} else {
				s.Decided++
				s.Decision = append(s.Decision, float64(j.decided-j.due)*usPerNs)
				if k := sliceOf(marks, j.decided); k >= 0 {
					s.Slices[k].Decided++
				}
				if k := sliceOf(marks, j.due); k >= 0 {
					s.Slices[k].Decision = append(s.Slices[k].Decision, float64(j.decided-j.due)*usPerNs)
				}
			}
			s.Lag = append(s.Lag, float64(j.submitted-j.due)*usPerNs)
			if j.returned != 0 {
				s.Submit = append(s.Submit, float64(j.returned-j.submitted)*usPerNs)
				if j.decided != 0 {
					s.Wait = append(s.Wait, float64(max(j.decided-j.returned, 0))*usPerNs)
				}
			}
			if j.outcome == core.AdmissionAccepted {
				s.Accepted++
				if j.completed == 0 {
					violate("%s#%d: lost, admitted but never completed", tasks[ti], k)
					failed = true
				} else {
					s.Completed++
					s.Completion = append(s.Completion, float64(j.completed-j.due)*usPerNs)
					if k := sliceOf(marks, j.due); k >= 0 {
						s.Slices[k].Completion = append(s.Slices[k].Completion, float64(j.completed-j.due)*usPerNs)
					}
					s.Execute = append(s.Execute, float64(max(j.completed-j.decided, 0))*usPerNs)
				}
				if j.missed {
					s.Missed++
				}
			}
			if failed {
				s.Failed++
			}
		}
	}
	return s
}
