package des

// This file retains the paper-simple simulation substrate exactly as it
// stood before the pooled engine landed: heap-allocated timers boxed through
// container/heap's any interface, closure callbacks on every path, and a
// binary heap. It is the ground truth for the differential property test
// (TestEngineDifferential / TestProcessorDifferential drive random
// schedule/send/preempt sequences through both implementations and assert
// identical (time, seq, fired) traces) and the baseline for the engine
// microbenchmarks. It is an oracle, not product, so it lives in a test file.

import (
	"container/heap"
	"fmt"
	"time"
)

// refTimer is the reference engine's timer: one heap allocation per event,
// holding its callback closure until the record is garbage collected. A
// preempted processor marks its completion withdrawn, and the engine drops
// it unfired.
type refTimer struct {
	at        time.Duration
	seq       int64
	fn        func()
	withdrawn bool
}

// refTimerHeap orders timers by (time, sequence).
type refTimerHeap []*refTimer

func (h refTimerHeap) Len() int { return len(h) }
func (h refTimerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refTimerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refTimerHeap) Push(x any)   { *h = append(*h, x.(*refTimer)) }
func (h *refTimerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// refEngine is the reference simulation core.
type refEngine struct {
	now     time.Duration
	seq     int64
	pending refTimerHeap
	fired   int64
}

func newRefEngine() *refEngine { return &refEngine{} }

func (e *refEngine) Now() time.Duration { return e.now }
func (e *refEngine) Fired() int64       { return e.fired }

// At schedules fn to run at the given absolute virtual time.
func (e *refEngine) At(at time.Duration, fn func()) *refTimer {
	if at < e.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("des: scheduling nil callback")
	}
	e.seq++
	t := &refTimer{at: at, seq: e.seq, fn: fn}
	heap.Push(&e.pending, t)
	return t
}

// After schedules fn to run d from now.
func (e *refEngine) After(d time.Duration, fn func()) *refTimer {
	return e.At(e.now+d, fn)
}

// Step executes the next pending event, advancing the clock to its time.
func (e *refEngine) Step() bool {
	for e.pending.Len() > 0 {
		t := heap.Pop(&e.pending).(*refTimer)
		if t.withdrawn {
			continue
		}
		e.now = t.at
		e.fired++
		t.fn()
		return true
	}
	return false
}

// RunUntil executes events in order until the queue is empty or the next
// event is strictly after the horizon.
func (e *refEngine) RunUntil(horizon time.Duration) {
	for e.pending.Len() > 0 {
		t := e.pending[0]
		if t.withdrawn {
			heap.Pop(&e.pending)
			continue
		}
		if t.at > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// Run executes events until the queue is empty.
func (e *refEngine) Run() {
	for e.Step() {
	}
}

// PendingCount returns the number of scheduled, not-yet-fired events by
// scanning the heap — the O(n) cost the live counter replaced.
func (e *refEngine) PendingCount() int {
	n := 0
	for _, t := range e.pending {
		if !t.withdrawn {
			n++
		}
	}
	return n
}

// refExecRequest is the reference processor's heap-allocated work record.
type refExecRequest struct {
	Label      string
	Priority   int
	Remaining  time.Duration
	OnComplete func()

	seq     int64
	started time.Duration
	done    bool
}

// refReqHeap orders ready requests by (priority, submission order).
type refReqHeap []*refExecRequest

func (h refReqHeap) Len() int { return len(h) }
func (h refReqHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority < h[j].Priority
	}
	return h[i].seq < h[j].seq
}
func (h refReqHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refReqHeap) Push(x any)   { *h = append(*h, x.(*refExecRequest)) }
func (h *refReqHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return r
}

// refProcessor is the reference preemptive fixed-priority processor.
type refProcessor struct {
	ID int

	eng       *refEngine
	ready     refReqHeap
	running   *refExecRequest
	complete  *refTimer
	seq       int64
	onIdle    func()
	idleArmed bool

	BusyTime time.Duration
}

func newRefProcessor(eng *refEngine, id int) *refProcessor {
	return &refProcessor{ID: id, eng: eng}
}

func (p *refProcessor) SetIdleCallback(fn func()) { p.onIdle = fn }

func (p *refProcessor) Idle() bool { return p.running == nil && len(p.ready) == 0 }

func (p *refProcessor) QueueLen() int { return len(p.ready) }

// Submit enqueues a request, preempting the running request if the new one
// has higher priority (smaller value).
func (p *refProcessor) Submit(r *refExecRequest) {
	if r == nil || r.Remaining <= 0 {
		panic(fmt.Sprintf("des: processor %d: invalid exec request %+v", p.ID, r))
	}
	if r.done {
		panic(fmt.Sprintf("des: processor %d: resubmitting completed request %q", p.ID, r.Label))
	}
	p.seq++
	r.seq = p.seq
	if p.running == nil {
		p.start(r)
		return
	}
	if r.Priority < p.running.Priority {
		p.preempt()
		heap.Push(&p.ready, p.running)
		p.running = nil
		p.start(r)
		return
	}
	heap.Push(&p.ready, r)
}

func (p *refProcessor) preempt() {
	ran := p.eng.Now() - p.running.started
	p.running.Remaining -= ran
	p.BusyTime += ran
	p.complete.withdrawn = true
	p.complete = nil
}

func (p *refProcessor) start(r *refExecRequest) {
	p.running = r
	r.started = p.eng.Now()
	p.complete = p.eng.After(r.Remaining, func() { p.finish(r) })
}

func (p *refProcessor) finish(r *refExecRequest) {
	p.BusyTime += p.eng.Now() - r.started
	r.Remaining = 0
	r.done = true
	p.running = nil
	p.complete = nil
	if r.OnComplete != nil {
		r.OnComplete()
	}
	if p.running == nil && len(p.ready) > 0 {
		next := heap.Pop(&p.ready).(*refExecRequest)
		p.start(next)
	}
	if p.Idle() && p.onIdle != nil {
		p.armIdle()
	}
}

func (p *refProcessor) armIdle() {
	if p.idleArmed {
		return
	}
	p.idleArmed = true
	p.eng.After(0, func() {
		p.idleArmed = false
		if p.Idle() && p.onIdle != nil {
			p.onIdle()
		}
	})
}
