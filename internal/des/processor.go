package des

import (
	"fmt"
	"slices"
	"time"
)

// poolChunk is the room a processor's request pool, free list and ready
// heap take when they first grow: a processor's queue seldom outgrows it, so
// a run grows each of them once or twice instead of once per doubling from
// one.
const poolChunk = 16

// room returns s with room for one more element, growing it by at least
// poolChunk when it is full.
func room[T any](s []T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, poolChunk)
	}
	return s
}

// reqSlot is one pooled execution record.
type reqSlot struct {
	prio      int32
	seq       int64
	remaining time.Duration
	started   time.Duration
	h         EventHandler
	ev        Event
}

// readyEnt is one ready-queue record: the ordering key inline plus the slot
// index.
type readyEnt struct {
	prio int32
	seq  int64
	idx  int32
}

func readyLess(a, b readyEnt) bool {
	return a.prio < b.prio || (a.prio == b.prio && a.seq < b.seq)
}

// Processor simulates a single CPU under preemptive fixed-priority
// scheduling. Submitting a request with a priority smaller than the running
// request's priority preempts it; the preempted request keeps its remaining
// execution time and resumes later.
//
// When the processor transitions to idle it invokes the idle callback via a
// zero-delay event, mirroring the paper's lowest-priority "idle detector"
// thread: the callback only fires if the processor is still idle when the
// event executes, so back-to-back completions and arrivals do not produce
// spurious idle reports.
type Processor struct {
	// ID numbers the processor within the cluster.
	ID int

	eng     *Engine
	slots   []reqSlot
	free    []int32
	ready   []readyEnt // 4-ary min-heap ordered by (priority, seq)
	running int32      // slot index of the running request, -1 when idle
	onIdle  func()

	// While a request runs, its completion is due at (doneAt, doneSeq), the
	// seq drawn from the engine's counter when it started, and the processor
	// sits at busyPos in the engine's busy heap (-1 when idle).
	doneAt  time.Duration
	doneSeq int64
	busyPos int
	// idleArmed is set while the idle detector's timer is queued.
	idleArmed bool
	seq       int64

	// BusyTime accumulates total executed time, for utilization accounting
	// in tests.
	BusyTime time.Duration
}

// NewProcessor returns an idle processor bound to the engine.
func NewProcessor(eng *Engine, id int) *Processor {
	return &Processor{ID: id, eng: eng, running: -1, busyPos: -1}
}

// SetIdleCallback installs fn to be called (via a zero-delay event) whenever
// the processor transitions from busy to idle. Passing nil disables it.
func (p *Processor) SetIdleCallback(fn func()) { p.onIdle = fn }

// Idle reports whether the processor has no running or ready work.
func (p *Processor) Idle() bool { return p.running < 0 && len(p.ready) == 0 }

// QueueLen returns the number of ready (not running) requests.
func (p *Processor) QueueLen() int { return len(p.ready) }

// allocReq takes a free request slot, growing the arena when needed.
func (p *Processor) allocReq() int32 {
	if n := len(p.free); n > 0 {
		idx := p.free[n-1]
		p.free = p.free[:n-1]
		return idx
	}
	p.slots = append(room(p.slots), reqSlot{})
	return int32(len(p.slots) - 1)
}

// freeReq recycles a completed slot, dropping its handler and payload so
// finished requests never pin dead job state.
func (p *Processor) freeReq(idx int32) {
	s := &p.slots[idx]
	s.h = nil
	s.ev = Event{}
	p.free = append(room(p.free), idx)
}

// SubmitEvent enqueues a unit of work, a subjob on its fixed-priority
// dispatch thread, preempting the running request if the new one has higher
// priority (smaller value). Its completion delivers the typed event ev to h;
// the slot is pooled, so submission does not allocate.
//
//rtmw:noalloc
func (p *Processor) SubmitEvent(priority int, exec time.Duration, h EventHandler, ev Event) {
	if exec <= 0 {
		//rtmw:ignore noalloc programmer-error panic path, never taken in steady state
		panic(fmt.Sprintf("des: processor %d: invalid execution time %v", p.ID, exec))
	}
	if h == nil {
		//rtmw:ignore noalloc programmer-error panic path, never taken in steady state
		panic(fmt.Sprintf("des: processor %d: nil completion handler", p.ID))
	}
	idx := p.allocReq()
	s := &p.slots[idx]
	s.prio = int32(priority)
	s.remaining = exec
	s.h = h
	s.ev = ev
	p.seq++
	s.seq = p.seq
	if p.running < 0 {
		p.start(idx)
		return
	}
	run := &p.slots[p.running]
	if s.prio < run.prio {
		p.preempt()
		p.readyPush(readyEnt{prio: run.prio, seq: run.seq, idx: p.running})
		p.running = -1
		p.start(idx)
		return
	}
	p.readyPush(readyEnt{prio: s.prio, seq: s.seq, idx: idx})
}

// preempt stops the running request, charging it for the time executed so
// far, and withdraws its completion.
func (p *Processor) preempt() {
	run := &p.slots[p.running]
	ran := p.eng.Now() - run.started
	run.remaining -= ran
	p.BusyTime += ran
	p.eng.busyRemove(p)
	p.eng.live--
}

// start begins executing the slot and files its completion with the engine.
func (p *Processor) start(idx int32) {
	e := p.eng
	p.running = idx
	s := &p.slots[idx]
	s.started = e.now
	e.seq++
	p.doneAt, p.doneSeq = e.now+s.remaining, e.seq
	e.live++
	e.busyPush(p)
}

// finish completes the running request, dispatches the next ready request,
// and arms the idle callback if the processor drained. The engine calls it
// when the completion fires, after taking the processor out of its busy heap.
func (p *Processor) finish() {
	idx := p.running
	s := &p.slots[idx]
	p.BusyTime += p.eng.Now() - s.started
	// Copy the completion dispatch and recycle before invoking, so the
	// handler can submit new work that reuses this slot and the processor
	// retains no reference to finished state.
	h, ev := s.h, s.ev
	p.running = -1
	p.freeReq(idx)
	h.HandleEvent(ev)
	// The completion handler may have submitted new local work
	// synchronously.
	if p.running < 0 && len(p.ready) > 0 {
		next := p.readyPop()
		p.start(next.idx)
	}
	if p.Idle() && p.onIdle != nil {
		p.armIdle()
	}
}

// armIdle schedules the idle callback at the current time (zero delay). The
// callback re-checks idleness when it runs, like a lowest-priority idle
// detector thread that only gets the CPU when nothing else is ready.
func (p *Processor) armIdle() {
	if p.idleArmed {
		return
	}
	p.idleArmed = true
	p.eng.schedule(p.eng.now, dispatchProcIdle, nil, nil, p, Event{})
}

// idleEvent is the engine's dispatch target for idle-detector timers.
func (p *Processor) idleEvent() {
	p.idleArmed = false
	if p.Idle() && p.onIdle != nil {
		p.onIdle()
	}
}

// readyPush inserts an entry into the 4-ary ready heap.
func (p *Processor) readyPush(x readyEnt) {
	h := append(room(p.ready), x)
	i := len(h) - 1
	for i > 0 {
		par := (i - 1) / 4
		if !readyLess(h[i], h[par]) {
			break
		}
		h[i], h[par] = h[par], h[i]
		i = par
	}
	p.ready = h
}

// readyPop removes and returns the highest-priority ready entry, sifting the
// former tail down through a hole (one write per level instead of a swap).
// readyEnt holds no pointers, so the vacated tail slot needs no zeroing.
func (p *Processor) readyPop() readyEnt {
	h := p.ready
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			best, bv := c, h[c]
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if readyLess(h[j], bv) {
					best, bv = j, h[j]
				}
			}
			if !readyLess(bv, last) {
				break
			}
			h[i] = bv
			i = best
		}
		h[i] = last
	}
	p.ready = h
	return top
}

// Link models a point-to-point network path with a fixed one-way delay, used
// for event pushes and remote invocations between simulated nodes. Its sends
// wait in a FIFO lane: each fires at now + delay, and the clock never goes
// back, so the lane is in (time, seq) order as pushed, and the engine fires
// its head when that is the least pending event.
type Link struct {
	eng   *Engine
	delay time.Duration
	// lane is a ring of pending sends, len(lane) a power of two (or zero):
	// head indexes the next to fire and n counts them.
	lane    []laneEnt
	head, n int
}

// laneEnt is one pending send: its ordering key and its typed event.
type laneEnt struct {
	at  time.Duration
	seq int64
	h   EventHandler
	ev  Event
}

// NewLink returns a link with the given one-way delay. The paper's testbed
// measured a mean one-way delay of 322 µs on 100 Mbps Ethernet; simulation
// configs default to that figure. A negative delay panics.
func NewLink(eng *Engine, delay time.Duration) *Link {
	if delay < 0 {
		panic("des: negative link delay")
	}
	l := &Link{eng: eng, delay: delay}
	eng.links = append(eng.links, l)
	return l
}

// Delay returns the one-way delay of the link.
func (l *Link) Delay() time.Duration { return l.delay }

// SendEvent delivers a typed event to h after the link's one-way delay,
// exactly where AfterEvent(delay, h, ev) would fire, but with no timer slot
// or heap entry.
//
//rtmw:noalloc
func (l *Link) SendEvent(h EventHandler, ev Event) {
	if h == nil {
		panic("des: sending to a nil event handler")
	}
	e := l.eng
	e.seq++
	if l.n == len(l.lane) {
		l.grow()
	}
	l.lane[(l.head+l.n)&(len(l.lane)-1)] = laneEnt{at: e.now + l.delay, seq: e.seq, h: h, ev: ev}
	l.n++
	e.live++
	e.work.Sent++
}

// grow doubles a full lane, unrolling the ring so head is 0 again.
func (l *Link) grow() {
	lane := make([]laneEnt, max(2*len(l.lane), 64))
	k := copy(lane, l.lane[l.head:])
	copy(lane[k:], l.lane[:l.head])
	l.lane, l.head = lane, 0
}

// pop removes the lane's head, dropping the lane's reference to its handler.
//
//rtmw:noalloc
func (l *Link) pop() (EventHandler, Event) {
	ent := &l.lane[l.head]
	h, ev := ent.h, ent.ev
	ent.h = nil
	l.head = (l.head + 1) & (len(l.lane) - 1)
	l.n--
	return h, ev
}
