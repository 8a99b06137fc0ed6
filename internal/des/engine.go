// Package des provides a deterministic discrete-event simulation substrate:
// a virtual clock with cancellable timers, preemptive fixed-priority
// processor models, and fixed-delay network links.
//
// The paper's schedulability experiments (Figures 5 and 6) ran on a
// six-machine KURT-Linux testbed with kernel-supported real-time priorities.
// Go's runtime cannot pin OS real-time priorities for goroutines, so this
// package substitutes a virtual-time simulation in which priorities and
// preemption are exact and runs are perfectly reproducible. The live
// bindings (internal/orb, internal/eventchan) cover the parts of the
// evaluation that need real clocks.
//
// The engine is single-threaded: callbacks run inside Run, one at a time, in
// (time, sequence) order. Events scheduled at equal times fire in the order
// they were scheduled.
//
// # Allocation-free hot path
//
// The engine is built for large sweeps (hundreds of processors, tens of
// thousands of tasks), so the per-event machinery avoids the heap entirely:
//
//   - timers live in a pooled slot arena recycled through a free list; a
//     Timer handle is a value (engine, slot, generation) triple, and the
//     generation counter keeps Cancel/Pending safe after the slot has been
//     recycled for a later event;
//   - the pending queue is an inlined 4-ary heap over (time, seq, slot)
//     records — no container/heap, no interface boxing, no per-operation
//     method values, and comparisons touch only inline fields;
//   - besides closure callbacks (At/After), events can carry a small typed
//     payload (AtEvent/AfterEvent) dispatched to an EventHandler, so the
//     dominant simulation paths schedule events without capturing state in
//     a fresh closure;
//   - a send on a Link takes no slot and no heap entry: the link's FIFO lane
//     is in (time, seq) order as pushed, and the engine fires the least of
//     the heap top and the lane heads.
//
// The paper-simple implementation (heap-allocated timers boxed through
// container/heap) is retained in reference_test.go; a differential property test
// proves the two produce identical (time, seq) firing traces.
package des

import (
	"fmt"
	"slices"
	"time"
)

// Event is a small typed payload delivered to an EventHandler when its timer
// fires. The fields have no fixed meaning to the engine; handlers define
// their own Kind space and field conventions. Carrying state here instead of
// in a captured closure is what keeps the simulation hot path allocation
// free.
type Event struct {
	// Kind selects the handler's dispatch arm.
	Kind int32
	// A and B are small operands (typically pool indices or stage numbers).
	A, B int32
	// N is a wide operand (typically a job number).
	N int64
	// D is a duration operand (typically an arrival time).
	D time.Duration
}

// EventHandler consumes typed events scheduled with AtEvent/AfterEvent.
// Implementations are usually a single struct with a jump table over
// Event.Kind.
type EventHandler interface {
	HandleEvent(ev Event)
}

// dispatch kinds for pooled timer slots.
const (
	dispatchNone uint8 = iota // slot is free
	dispatchFunc
	dispatchHandler
	dispatchProcComplete
	dispatchProcIdle
)

// slot is one pooled timer record. Slots are recycled through Engine.free;
// gen increments on every recycle so stale Timer handles go inert instead of
// touching the slot's new occupant.
type slot struct {
	at        time.Duration
	seq       int64
	gen       uint32
	dispatch  uint8
	cancelled bool
	ev        Event
	fn        func()
	h         EventHandler
	proc      *Processor
}

// Timer is a handle to a scheduled callback. It is a plain value — copying
// it is cheap and the zero value is inert. Cancelling an already-fired or
// already-cancelled timer is a no-op.
type Timer struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel prevents the callback from firing. It reports whether the timer was
// still pending. The slot's callback and payload references are dropped
// immediately so a long drain cannot pin dead state; the slot itself is
// recycled lazily when the heap pops it.
func (t Timer) Cancel() bool {
	if t.e == nil {
		return false
	}
	s := &t.e.slots[t.idx]
	if s.gen != t.gen || s.dispatch == dispatchNone || s.cancelled {
		return false
	}
	s.cancelled = true
	s.fn = nil
	s.h = nil
	s.proc = nil
	s.ev = Event{}
	t.e.live--
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	if t.e == nil {
		return false
	}
	s := &t.e.slots[t.idx]
	return s.gen == t.gen && s.dispatch != dispatchNone && !s.cancelled
}

// heapEnt is one pending-queue record: the ordering key inline plus the slot
// index, so heap comparisons never chase a pointer.
type heapEnt struct {
	at  time.Duration
	seq int64
	idx int32
}

func entLess(a, b heapEnt) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is the simulation core. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now   time.Duration
	seq   int64
	fired int64
	live  int // scheduled, not-yet-cancelled events, lane sends included — O(1) PendingCount
	slots []slot
	free  []int32
	heap  []heapEnt // 4-ary min-heap ordered by (at, seq)
	links []*Link   // every link on the engine, each with its FIFO lane
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time as an offset from simulation start.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of callbacks executed so far, link deliveries
// included. Intended for tests and instrumentation.
func (e *Engine) Fired() int64 { return e.fired }

// Reserve makes room for n more scheduled events than are outstanding now:
// the slot arena, the pending heap and the free list are each sized once, so
// scheduling those events grows nothing. A caller that knows how many events
// it is about to schedule (a simulation's first arrivals) saves the arena's
// growth by doubling and the copies that come with it. Timer handles address
// slots by index, so the ones taken before the arena moved stay valid.
func (e *Engine) Reserve(n int) {
	// Free slots are taken before the arena grows.
	e.slots = slices.Grow(e.slots, max(n-len(e.free), 0))
	e.heap = slices.Grow(e.heap, n)
	// Every slot can be on the free list at once.
	e.free = slices.Grow(e.free, cap(e.slots)-len(e.free))
}

// alloc takes a free slot, growing the arena when the free list is empty.
//
//rtmw:noalloc
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// recycle returns a popped slot to the free list, bumping its generation so
// outstanding handles go inert, and dropping every callback/payload
// reference so fired or cancelled events never pin dead state.
//
//rtmw:noalloc
func (e *Engine) recycle(idx int32) {
	s := &e.slots[idx]
	s.gen++
	s.dispatch = dispatchNone
	s.cancelled = false
	s.fn = nil
	s.h = nil
	s.proc = nil
	s.ev = Event{}
	e.free = append(e.free, idx)
}

// schedule is the single scheduling entry point behind At/AtEvent and the
// processor-internal event kinds.
//
//rtmw:noalloc
func (e *Engine) schedule(at time.Duration, dispatch uint8, fn func(), h EventHandler, proc *Processor, ev Event) Timer {
	if at < e.now {
		//rtmw:ignore noalloc programmer-error panic path, never taken in steady state
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, e.now))
	}
	e.seq++
	idx := e.alloc()
	s := &e.slots[idx]
	s.at = at
	s.seq = e.seq
	s.dispatch = dispatch
	s.cancelled = false
	s.fn = fn
	s.h = h
	s.proc = proc
	s.ev = ev
	e.heapPush(heapEnt{at: at, seq: e.seq, idx: idx})
	e.live++
	return Timer{e: e, idx: idx, gen: s.gen}
}

// At schedules fn to run at the given absolute virtual time. Scheduling in
// the past (before Now) panics: it indicates a simulation logic bug, not a
// recoverable condition.
func (e *Engine) At(at time.Duration, fn func()) Timer {
	if fn == nil {
		panic("des: scheduling nil callback")
	}
	return e.schedule(at, dispatchFunc, fn, nil, nil, Event{})
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	return e.At(e.now+d, fn)
}

// AtEvent schedules a typed event for h at the given absolute virtual time.
// Unlike At, no closure is involved: the payload travels in the pooled slot,
// so steady-state scheduling does not allocate.
//
//rtmw:noalloc
func (e *Engine) AtEvent(at time.Duration, h EventHandler, ev Event) Timer {
	if h == nil {
		panic("des: scheduling nil event handler")
	}
	return e.schedule(at, dispatchHandler, nil, h, nil, ev)
}

// AfterEvent schedules a typed event for h at d from now.
//
//rtmw:noalloc
func (e *Engine) AfterEvent(d time.Duration, h EventHandler, ev Event) Timer {
	return e.AtEvent(e.now+d, h, ev)
}

// Step executes the next pending event, advancing the clock to its time. It
// reports whether an event was executed.
//
//rtmw:noalloc
func (e *Engine) Step() bool {
	at, lane, ok := e.next()
	if ok {
		e.fire(at, lane)
	}
	return ok
}

// next finds the pending event with the least (at, seq): the heap top, or
// the head of the lane it returns. Cancelled heap tops are recycled on the
// way. ok is false when nothing is pending.
//
//rtmw:noalloc
func (e *Engine) next() (at time.Duration, lane *Link, ok bool) {
	for len(e.heap) > 0 && e.slots[e.heap[0].idx].cancelled {
		e.recycle(e.heapPop().idx)
	}
	var seq int64
	if len(e.heap) > 0 {
		at, seq, ok = e.heap[0].at, e.heap[0].seq, true
	}
	for _, l := range e.links {
		if l.n == 0 {
			continue
		}
		h := &l.lane[l.head]
		if !ok || h.at < at || (h.at == at && h.seq < seq) {
			at, seq, lane, ok = h.at, h.seq, l, true
		}
	}
	return at, lane, ok
}

// fire executes the event next found: the head of lane, or the heap top
// when lane is nil.
//
//rtmw:noalloc
func (e *Engine) fire(at time.Duration, lane *Link) {
	e.live--
	e.now = at
	e.fired++
	if lane != nil {
		h, ev := lane.pop()
		h.HandleEvent(ev)
		return
	}
	idx := e.heapPop().idx
	s := &e.slots[idx]
	// Copy the dispatch fields and recycle before invoking, so the callback
	// can schedule new events straight into this slot and the engine retains
	// no reference to fired state.
	dispatch, fn, h, proc, ev := s.dispatch, s.fn, s.h, s.proc, s.ev
	e.recycle(idx)
	switch dispatch {
	case dispatchFunc:
		fn()
	case dispatchHandler:
		h.HandleEvent(ev)
	case dispatchProcComplete:
		proc.completeEvent(ev.A, uint32(ev.B))
	case dispatchProcIdle:
		proc.idleEvent()
	}
}

// RunUntil executes events in order until the queue is empty or the next
// event is strictly after the horizon. The clock finishes at the horizon (or
// at the last event time if later events remain).
//
//rtmw:noalloc
func (e *Engine) RunUntil(horizon time.Duration) {
	for {
		at, lane, ok := e.next()
		if !ok || at > horizon {
			break
		}
		e.fire(at, lane)
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// Run executes events until the queue is empty.
//
//rtmw:noalloc
func (e *Engine) Run() {
	for e.Step() {
	}
}

// PendingCount returns the number of scheduled, not-yet-cancelled events,
// link sends included. It is O(1): the engine keeps a live counter instead
// of scanning the heap, so invariant audits inside hot test loops stay cheap.
func (e *Engine) PendingCount() int { return e.live }

// heapPush inserts an entry into the 4-ary heap.
//
//rtmw:noalloc
func (e *Engine) heapPush(x heapEnt) {
	e.heap = append(e.heap, x)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// heapPop removes and returns the minimum entry, sifting the former tail
// down through a hole (one write per level instead of a swap). heapEnt holds
// no pointers, so the vacated tail slot needs no zeroing.
//
//rtmw:noalloc
func (e *Engine) heapPop() heapEnt {
	h := e.heap
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
				if entLess(h[j], bv) {
					best, bv = j, h[j]
				}
			}
			if !entLess(bv, last) {
				break
			}
			h[i] = bv
			i = best
		}
		h[i] = last
	}
	e.heap = h
	return top
}
