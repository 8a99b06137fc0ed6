package main

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// fakeBinding stands in for a binding: Submit assigns job numbers and emits
// the job's watch events at once, except where a test tells it to misbehave.
type fakeBinding struct {
	hub core.WatchHub

	mu   sync.Mutex
	next map[string]int64

	// lose names jobs that get no events at all; twice names jobs that
	// complete twice; reject names jobs the admission test refuses; cached
	// makes Submit resolve synchronously, as the per-task path does.
	lose, twice, reject map[sched.JobRef]bool
	cached              bool
	// loseFirst loses that many submissions from the start, whatever their
	// task.
	loseFirst int
}

func newFakeBinding() *fakeBinding {
	return &fakeBinding{next: map[string]int64{}, lose: map[sched.JobRef]bool{}, twice: map[sched.JobRef]bool{}, reject: map[sched.JobRef]bool{}}
}

func (f *fakeBinding) Submit(task string) (core.Admission, error) {
	f.mu.Lock()
	job := f.next[task]
	f.next[task]++
	lost := f.loseFirst > 0
	f.loseFirst--
	f.mu.Unlock()
	ref := sched.JobRef{Task: task, Job: job}
	adm := core.Admission{Task: task, Job: job, Outcome: core.AdmissionPending}
	switch {
	case lost || f.lose[ref]:
	case f.reject[ref]:
		f.hub.Emit(core.WatchEvent{Kind: core.WatchRejected, Task: task, Job: job})
	default:
		f.hub.Emit(core.WatchEvent{Kind: core.WatchAdmitted, Task: task, Job: job})
		f.hub.Emit(core.WatchEvent{Kind: core.WatchCompleted, Task: task, Job: job})
		if f.twice[ref] {
			f.hub.Emit(core.WatchEvent{Kind: core.WatchCompleted, Task: task, Job: job})
		}
		if f.cached {
			adm.Outcome = core.AdmissionAccepted
		}
	}
	return adm, nil
}

func (f *fakeBinding) Watch(opts core.WatchOptions) (*core.WatchStream, error) {
	return f.hub.Subscribe(opts), nil
}
func (f *fakeBinding) Snapshot() core.BindingSnapshot { return core.BindingSnapshot{} }
func (f *fakeBinding) Reconfigure(core.Config) (*core.ReconfigReport, error) {
	return &core.ReconfigReport{}, nil
}
func (f *fakeBinding) AddTasks([]*sched.Task) error { return nil }
func (f *fakeBinding) RemoveTasks([]string) error   { return nil }
func (f *fakeBinding) Stop() error                  { f.hub.CloseAll(); return nil }

// closedLoop runs count jobs through a window of four against the fake and
// returns what the recorder made of them.
func closedLoop(t *testing.T, f *fakeBinding, count int) (jobStats, *loadgen) {
	t.Helper()
	tasks := []string{"a", "b", "c"}
	rec := newRecorder(tasks, 4, count)
	watch, err := f.Watch(core.WatchOptions{Buffer: 4 * count})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go rec.consume(watch.Events(), done)
	gen := newLoadgen(f, rec, tasks)
	gen.traced = true
	gen.timeout = 80 * time.Millisecond
	gen.runClosed(newTaskPicker(1, len(tasks)), phaseMeasured, count)
	gen.settle()
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	<-done
	return rec.collect(tasks, nil), gen
}

func hasViolation(s jobStats, part string) bool {
	for _, v := range s.Violations {
		if strings.Contains(v, part) {
			return true
		}
	}
	return false
}

func TestClosedLoopTokensAddUp(t *testing.T) {
	for _, cached := range []bool{false, true} {
		f := newFakeBinding()
		f.cached = cached
		f.reject[sched.JobRef{Task: "b", Job: 2}] = true
		stats, gen := closedLoop(t, f, 300)
		if stats.Attempted != 300 || stats.Decided != 300 || stats.Failed != 0 || len(stats.Violations) != 0 {
			t.Errorf("cached=%v: %+v", cached, stats)
		}
		if stats.Accepted != 299 || stats.Completed != 299 {
			t.Errorf("cached=%v: accepted %d completed %d, want 299", cached, stats.Accepted, stats.Completed)
		}
		if !gen.tokensHome() {
			t.Errorf("cached=%v: %d tokens and %d credit of %d", cached, len(gen.rec.tokens), gen.credit, cap(gen.rec.tokens))
		}
	}
}

// A job that never gets an event fails the run: the job counts as failed,
// the checker names it, and the run reports itself incorrect, which is what
// makes the command exit non-zero.
func TestLostJobFailsTheRun(t *testing.T) {
	f := newFakeBinding()
	f.lose[sched.JobRef{Task: "a", Job: 1}] = true
	stats, _ := closedLoop(t, f, 100)
	if stats.Attempted != 100 || stats.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 100 and 1", stats.Attempted, stats.Failed)
	}
	if !hasViolation(stats, "a#1: lost") {
		t.Errorf("no lost-job finding in %q", stats.Violations)
	}
	rep := &report{attempted: stats.Attempted, failed: stats.Failed, violations: stats.Violations}
	if rep.correct() || rep.line().Correct {
		t.Error("a run that lost a job reports itself correct")
	}
}

// Lost jobs must not wedge the window: when every token is held by a job
// that will never end, the submitter times them out, reclaims their tokens
// and carries on, and the tokens still add up at the end.
func TestTimeoutReclaimsTheWindow(t *testing.T) {
	f := newFakeBinding()
	f.loseFirst = 4
	stats, gen := closedLoop(t, f, 100)
	if stats.Attempted != 100 || stats.Failed != 4 || stats.Decided != 96 {
		t.Errorf("attempted %d decided %d failed %d, want 100, 96 and 4", stats.Attempted, stats.Decided, stats.Failed)
	}
	if !gen.tokensHome() {
		t.Errorf("%d tokens and %d credit of %d", len(gen.rec.tokens), gen.credit, cap(gen.rec.tokens))
	}
}

func TestDuplicateCompletionIsCaught(t *testing.T) {
	f := newFakeBinding()
	f.twice[sched.JobRef{Task: "c", Job: 0}] = true
	stats, gen := closedLoop(t, f, 100)
	if !hasViolation(stats, "c#0: completed 2 times") {
		t.Errorf("no duplicate-completion finding in %q", stats.Violations)
	}
	if stats.Failed != 0 || !gen.tokensHome() {
		t.Errorf("failed %d, tokens home %v: a duplicate must not disturb the window", stats.Failed, gen.tokensHome())
	}
}

func TestSeqRegressionIsCaught(t *testing.T) {
	rec := newRecorder([]string{"a"}, 1, 8)
	rec.register(0, core.Admission{Task: "a", Job: 0, Outcome: core.AdmissionPending}, nil, phaseMeasured, rec.now(), rec.now(), 0)
	rec.observe(core.WatchEvent{Seq: 5, Kind: core.WatchAdmitted, Task: "a", Job: 0}, rec.now())
	rec.observe(core.WatchEvent{Seq: 4, Kind: core.WatchCompleted, Task: "a", Job: 0}, rec.now())
	stats := rec.collect([]string{"a"}, nil)
	if !hasViolation(stats, "watch Seq went backwards") {
		t.Errorf("no Seq finding in %q", stats.Violations)
	}
}

func TestEventForUnsubmittedJobIsCaught(t *testing.T) {
	rec := newRecorder([]string{"a"}, 1, 8)
	rec.observe(core.WatchEvent{Seq: 1, Kind: core.WatchCompleted, Task: "a", Job: 3}, rec.now())
	if stats := rec.collect([]string{"a"}, nil); !hasViolation(stats, "a#3: events for a job nobody submitted") {
		t.Errorf("no finding in %q", stats.Violations)
	}
}

// The open loop times each job from when it was due, not from when Submit
// was called.
func TestOpenLoopTimesFromDue(t *testing.T) {
	f := newFakeBinding()
	tasks := []string{"a"}
	rec := newRecorder(tasks, 1, 8)
	watch, _ := f.Watch(core.WatchOptions{})
	done := make(chan struct{})
	go rec.consume(watch.Events(), done)
	gen := newLoadgen(f, rec, tasks)
	// Three jobs all due in the past: the generator is 5 ms late for each.
	start := time.Now().Add(-5 * time.Millisecond)
	gen.runOpen([]arrival{{0, 0}, {0, 0}, {0, 0}}, start)
	gen.settle()
	_ = f.Stop()
	<-done
	stats := rec.collect(tasks, nil)
	if stats.Decided != 3 || len(stats.Violations) != 0 {
		t.Fatalf("%+v", stats)
	}
	for i, d := range stats.Decision {
		if d < 5000 || stats.Lag[i] < 5000 {
			t.Errorf("job %d: decision %v us, lag %v us; both include the 5 ms the generator was late", i, d, stats.Lag[i])
		}
	}
}
