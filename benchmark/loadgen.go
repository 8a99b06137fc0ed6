package main

import (
	"runtime"
	"time"

	"repro/internal/core"
)

// spinMargin is how long before a job's due time the open-loop generator
// stops sleeping and starts yielding, so that timer slack does not become
// lateness. Sleeps on the reference box overshoot by 100-250 µs; at 100 µs the
// median job was submitted 250 µs late, at 300 µs it is 70 µs.
const spinMargin = 300 * time.Microsecond

// loadgen is the single submitter goroutine's state. Everything it learns
// goes into the recorder.
type loadgen struct {
	b     binding
	rec   *recorder
	tasks []string
	// traced says whether the Submit return instant is stamped for every
	// job; alternate flips it at every slice boundary, so that traced and
	// untraced slices interleave on one cluster and the box's slow episodes
	// fall on both alike.
	traced    bool
	alternate bool
	// credit counts tokens the submitter reclaimed from timed-out jobs.
	credit int
	timer  *time.Timer
	// timeout is jobTimeout; the unit tests shorten it.
	timeout time.Duration
	// marks cut the measured window into slices; see sliceLen.
	marks    []mark
	nextMark int64
}

// sliceLen is the length of the slices a measured window is cut into. The
// latency metrics are read per slice and reported over the quietest slices
// (see quietMean), because the box is a few cores of a shared host: a
// neighbour slows it for seconds at a time, and a slice is short enough to
// fall between such episodes yet holds 75 jobs at the open-loop rate, enough
// for a median of its own. It is also one whole cycle of live-overload, whose
// ledger fills, refuses, and empties again once per deadline.
const sliceLen = 250 * time.Millisecond

// mark is a slice boundary: the instant it was noticed, the process's CPU
// time then, and whether the slice it opens is traced.
type mark struct {
	at     int64
	cpu    time.Duration
	traced bool
}

// startSlices opens the first slice at instant now.
func (g *loadgen) startSlices(now int64) {
	g.marks = append(make([]mark, 0, 256), mark{at: now, cpu: cpuTime(), traced: g.traced})
	g.nextMark = now + int64(sliceLen)
}

// tick closes a slice whenever now has passed its end. The submitter calls it
// before every Submit, so a boundary is noticed within one inter-arrival gap.
func (g *loadgen) tick(now int64) {
	if g.marks == nil || now < g.nextMark {
		return
	}
	if g.alternate {
		g.traced = !g.traced
	}
	g.marks = append(g.marks, mark{at: now, cpu: cpuTime(), traced: g.traced})
	for g.nextMark <= now {
		g.nextMark += int64(sliceLen)
	}
}

func newLoadgen(b binding, rec *recorder, tasks []string) *loadgen {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &loadgen{b: b, rec: rec, tasks: tasks, timer: t, timeout: jobTimeout}
}

// submit makes one Submit call for a job due at instant due. An untraced run
// stamps the return only when the return is itself the decision.
func (g *loadgen) submit(ti int, due int64, phase uint8) {
	submitted := g.rec.now()
	g.tick(submitted)
	adm, err := g.b.Submit(g.tasks[ti])
	var returned int64
	if g.traced || err != nil || adm.Outcome != core.AdmissionPending {
		returned = g.rec.now()
	}
	g.rec.register(ti, adm, err, phase, due, submitted, returned)
}

// runOpen submits the fixed schedule, each job at its due time or as soon
// after as the generator gets there, and never waits for a reply. Each job is
// timed from when it was due, so a stall charges every job it delays.
func (g *loadgen) runOpen(schedule []arrival, start time.Time) {
	for _, a := range schedule {
		due := start.Add(a.Due)
		if d := time.Until(due); d > spinMargin {
			time.Sleep(d - spinMargin)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		g.submit(a.Task, g.rec.at(due), phaseMeasured)
	}
}

// acquire takes one window token, waiting for a job to end. A job that has
// had no terminal event for the timeout is timed out and its token reclaimed.
func (g *loadgen) acquire() {
	for {
		if g.credit > 0 {
			g.credit--
			return
		}
		select {
		case <-g.rec.tokens:
			return
		default:
		}
		g.timer.Reset(g.timeout / 4)
		select {
		case <-g.rec.tokens:
			g.timer.Stop()
			return
		case <-g.timer.C:
			g.credit += g.rec.expire(g.rec.now() - int64(g.timeout))
		}
	}
}

// runClosed submits count jobs, keeping the window full. A job is due the
// moment its token is taken. It is what warms a cluster up; no workload is
// measured this way (see openLoopRate).
func (g *loadgen) runClosed(pick *taskPicker, phase uint8, count int) {
	for n := 0; n < count; n++ {
		g.acquire()
		g.submit(pick.next(), g.rec.now(), phase)
	}
}

// settleCap is the longest settle waits for a backlog that is still draining.
const settleCap = 30 * time.Second

// settle waits until every registered job has a terminal state and reports
// how many have not. It gives up once nothing has ended for the timeout: a
// job is lost when the system has gone quiet without answering it, not while
// a backlog (the box stalls for seconds at a time) is still draining.
func (g *loadgen) settle() int {
	last, lastProgress := g.rec.outstanding(), time.Now()
	giveUp := lastProgress.Add(settleCap)
	for {
		n, now := g.rec.outstanding(), time.Now()
		if n < last {
			last, lastProgress = n, now
		}
		if n <= 0 || now.Sub(lastProgress) >= g.timeout || now.After(giveUp) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// tokensHome reports whether every window token is back: the closed loop's
// own accounting check, valid once the run has settled.
func (g *loadgen) tokensHome() bool {
	return len(g.rec.tokens)+g.credit == cap(g.rec.tokens)
}
