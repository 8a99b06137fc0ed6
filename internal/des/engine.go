// Package des provides a deterministic discrete-event simulation substrate:
// a virtual clock with one-shot timers, preemptive fixed-priority processor
// models, and fixed-delay network links.
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
// they were scheduled. Every scheduled event fires exactly once.
//
// # Allocation-free hot path
//
// The engine is built for large sweeps (hundreds of processors, tens of
// thousands of tasks), so the per-event machinery avoids the heap entirely:
//
//   - timers live in a pooled slot arena recycled through a free list,
//     grown a chunk at a time and never copied; a slot holds no pointer: it
//     names a registered handler, its processor, or its closure or
//     unregistered handler by index into small per-engine tables, so the
//     collector never scans the arena;
//   - timers wait in a monotone radix queue: a timer sits in the bucket of
//     the highest bit in which its time differs from the last time popped,
//     each bucket lists its timers in seq order with their times inline, and
//     a timer moves to a lower bucket at most once per bit before it fires;
//   - each busy processor holds its one pending completion itself, and the
//     engine keeps the busy processors in a small indexed heap, so a
//     preemption leaves nothing behind to pop;
//   - besides closure callbacks (At), events can carry a small typed
//     payload (AtEvent/AfterEvent, AtID/AfterID for a handler registered
//     once) dispatched to an EventHandler, so the
//     dominant simulation paths schedule events without capturing state in
//     a fresh closure, and a processor's completions are typed events only;
//   - a send on a Link takes no slot and no queue entry: the link's FIFO lane
//     is in (time, seq) order as pushed, and the engine fires the least of
//     the queue top, the earliest completion and the lane heads.
//
// The paper-simple implementation (heap-allocated timers boxed through
// container/heap) is retained in reference_test.go; a differential property test
// proves the two produce identical (time, seq) firing traces.
package des

import (
	"fmt"
	"math/bits"
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

// EventHandler consumes typed events scheduled with AtEvent/AfterEvent or,
// once registered, AtID/AfterID.
// Implementations are usually a single struct with a jump table over
// Event.Kind.
type EventHandler interface {
	HandleEvent(ev Event)
}

// HandlerID names a handler registered with an engine (Engine.Register).
type HandlerID int32

// dispatch kinds for pooled timer slots.
const (
	dispatchNone uint8 = iota // the zero value: never scheduled
	dispatchCall
	dispatchHandler
	dispatchProcIdle
)

// slot is one pooled timer record, recycled through Engine.free once it
// fires: its seq, its event's fields, and target, which names what it
// dispatches to as four times an index plus the dispatch kind: the
// registered handler (dispatchHandler), the processor (dispatchProcIdle) or
// the pending call, a closure or an unregistered handler (dispatchCall).
//
//rtmw:noscan
type slot struct {
	seq, n     int64
	d          time.Duration
	kind, a, b int32
	target     int32
}

// qNode is a timer's place in the queue, indexed like its slot: its time,
// inline so a bucket walk never touches the slot, and the next timer of its
// bucket (of the free list, while the slot is free).
//
//rtmw:noscan
type qNode struct {
	at   time.Duration
	next int32
}

// bucket lists its timers in seq order from head to tail, and min is the
// first at the least time. It is meaningful only while its bit is set in
// Engine.nonEmpty.
type bucket struct {
	head, tail, min int32
}

// Engine is the simulation core. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now   time.Duration
	seq   int64
	fired int64
	live  int // scheduled, not-yet-fired events, lane sends and completions included — O(1) PendingCount
	// The slot arena and its queue nodes, slotChunk of each a chunk: slots
	// below cut have been used, and free heads the free ones (-1 for none).
	slots  []*[slotChunk]slot
	qnodes []*[slotChunk]qNode
	cut    int32
	free   int32
	links  []*Link      // every link on the engine, each with its FIFO lane
	procs  []*Processor // every processor on the engine, by Processor.idx
	busy   []*Processor // binary min-heap of running processors by (doneAt, doneSeq)

	// The tables slots name their targets in: handlers holds the
	// registered handlers, calls the closure (func()) or unregistered
	// EventHandler of each pending At or AtEvent timer, and freeCalls the
	// free entries of calls.
	handlers  []EventHandler
	calls     []any
	freeCalls []int32

	// The timer queue: a timer at time at is in bucket bits.Len64(at ^
	// base), base being the last time popped (or now, when the queue was
	// empty), so the lowest non-empty bucket's min is the queue's top. The
	// base moves only on a pop: lanes and processors fire before the queue
	// top and may schedule below it.
	base     time.Duration
	buckets  [64]bucket
	nonEmpty uint64 // bit b set when bucket b holds timers
	queued   int    // timers in the queue

	work Work
}

// Work counts the engine's work since it was made. The counts depend only
// on what was scheduled, never on the host, so a change that alters them
// changed the work done.
type Work struct {
	// Queued counts timers entered into the queue (At, AtEvent and the
	// processors' idle detectors).
	Queued int64
	// Sent counts link sends.
	Sent int64
	// BusyPushes and BusyRemoves count running processors entered into and
	// taken out of the busy heap: one each per start, and one remove per
	// completion or preemption.
	BusyPushes  int64
	BusyRemoves int64
}

// The slot arena grows by slotChunk slots, each chunk one allocation.
const (
	slotShift = 8
	slotChunk = 1 << slotShift
)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{free: -1}
}

// Now returns the current virtual time as an offset from simulation start.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of callbacks executed so far, link deliveries
// included. Intended for tests and instrumentation.
func (e *Engine) Fired() int64 { return e.fired }

// Work returns the engine's work counts. Intended for tests and
// instrumentation.
func (e *Engine) Work() Work { return e.work }

// grow adds a chunk of slots and their queue nodes.
func (e *Engine) grow() {
	e.slots = append(e.slots, new([slotChunk]slot))
	e.qnodes = append(e.qnodes, new([slotChunk]qNode))
}

// slot returns timer slot i.
//
//rtmw:noalloc
func (e *Engine) slot(i int32) *slot { return &e.slots[i>>slotShift][i&(slotChunk-1)] }

// qnode returns timer i's queue node.
//
//rtmw:noalloc
func (e *Engine) qnode(i int32) *qNode { return &e.qnodes[i>>slotShift][i&(slotChunk-1)] }

// alloc takes a free slot, cutting the next one when none is free.
//
//rtmw:noalloc
func (e *Engine) alloc() int32 {
	if i := e.free; i >= 0 {
		e.free = e.qnode(i).next
		return i
	}
	if int(e.cut) == len(e.slots)*slotChunk {
		//rtmw:ignore noalloc the arena grows a chunk per slotChunk slots, never per event
		e.grow()
	}
	e.cut++
	return e.cut - 1
}

// hold enters c, a closure or an unregistered handler, in the table of
// pending calls and returns its entry.
//
//rtmw:noalloc
func (e *Engine) hold(c any) int32 {
	if n := len(e.freeCalls); n > 0 {
		i := e.freeCalls[n-1]
		e.freeCalls = e.freeCalls[:n-1]
		e.calls[i] = c
		return i
	}
	//rtmw:ignore noalloc the table grows to the most calls ever pending at once, never per event
	e.calls = append(e.calls, c)
	return int32(len(e.calls) - 1)
}

// schedule is the single scheduling entry point behind At/AtEvent and the
// processor-internal event kinds: target is the slot's index into the
// table its dispatch kind names.
//
//rtmw:noalloc
func (e *Engine) schedule(at time.Duration, dispatch uint8, target int32, ev Event) {
	if at < e.now {
		//rtmw:ignore noalloc programmer-error panic path, never taken in steady state
		panic(fmt.Sprintf("des: scheduling at %v before now %v", at, e.now))
	}
	e.seq++
	idx := e.alloc()
	*e.slot(idx) = slot{seq: e.seq, n: ev.N, d: ev.D, kind: ev.Kind, a: ev.A, b: ev.B, target: target<<2 | int32(dispatch)}
	// An empty queue rebases at the clock, which no later push goes below.
	if e.queued == 0 {
		e.base = e.now
	}
	e.queued++
	e.work.Queued++
	e.qnode(idx).at = at
	e.bucketPush(bits.Len64(uint64(at^e.base)), idx)
	e.live++
}

// At schedules fn to run at the given absolute virtual time. Scheduling in
// the past (before Now) panics: it indicates a simulation logic bug, not a
// recoverable condition.
func (e *Engine) At(at time.Duration, fn func()) {
	if fn == nil {
		panic("des: scheduling nil callback")
	}
	e.schedule(at, dispatchCall, e.hold(fn), Event{})
}

// AtEvent schedules a typed event for h at the given absolute virtual time.
// Unlike At, no closure is involved: the payload travels in the pooled slot,
// so steady-state scheduling does not allocate. A handler that takes many
// events is cheaper registered once and scheduled with AtID.
//
//rtmw:noalloc
func (e *Engine) AtEvent(at time.Duration, h EventHandler, ev Event) {
	if h == nil {
		panic("des: scheduling nil event handler")
	}
	e.schedule(at, dispatchCall, e.hold(h), ev)
}

// Register adds h to the engine's handlers for the engine's lifetime and
// returns the id AtID and AfterID name it by.
func (e *Engine) Register(h EventHandler) HandlerID {
	if h == nil {
		panic("des: registering nil event handler")
	}
	e.handlers = append(e.handlers, h)
	return HandlerID(len(e.handlers) - 1)
}

// AtID schedules a typed event for registered handler id at the given
// absolute virtual time, as AtEvent does for its handler.
//
//rtmw:noalloc
func (e *Engine) AtID(at time.Duration, id HandlerID, ev Event) {
	e.schedule(at, dispatchHandler, int32(id), ev)
}

// AfterID schedules a typed event for registered handler id at d from now.
//
//rtmw:noalloc
func (e *Engine) AfterID(d time.Duration, id HandlerID, ev Event) {
	e.AtID(e.now+d, id, ev)
}

// AfterEvent schedules a typed event for h at d from now.
//
//rtmw:noalloc
func (e *Engine) AfterEvent(d time.Duration, h EventHandler, ev Event) {
	e.AtEvent(e.now+d, h, ev)
}

// Step executes the next pending event, advancing the clock to its time. It
// reports whether an event was executed.
//
//rtmw:noalloc
func (e *Engine) Step() bool {
	at, lane, proc, ok := e.next()
	if ok {
		e.fire(at, lane, proc)
	}
	return ok
}

// next finds the pending event with the least (at, seq): the queue top, the
// completion of proc or the head of lane (at most one of them non-nil). ok
// is false when nothing is pending.
//
//rtmw:noalloc
func (e *Engine) next() (at time.Duration, lane *Link, proc *Processor, ok bool) {
	// The queue's top is the min of its lowest non-empty bucket.
	var seq int64
	if ok = e.nonEmpty != 0; ok {
		top := e.buckets[bits.TrailingZeros64(e.nonEmpty)].min
		at, seq = e.qnode(top).at, e.slot(top).seq
	}
	if len(e.busy) > 0 {
		if p := e.busy[0]; !ok || p.doneAt < at || (p.doneAt == at && p.doneSeq < seq) {
			at, seq, proc, ok = p.doneAt, p.doneSeq, p, true
		}
	}
	for _, l := range e.links {
		if l.n == 0 {
			continue
		}
		h := &l.lane[l.head]
		if !ok || h.at < at || (h.at == at && h.seq < seq) {
			at, seq, lane, proc, ok = h.at, h.seq, l, nil, true
		}
	}
	return at, lane, proc, ok
}

// fire executes the event next found: the head of lane, the completion of
// proc, or the queue top when both are nil.
//
//rtmw:noalloc
func (e *Engine) fire(at time.Duration, lane *Link, proc *Processor) {
	e.live--
	e.now = at
	e.fired++
	if lane != nil {
		h, ev := lane.pop()
		h.HandleEvent(ev)
		return
	}
	if proc != nil {
		e.busyRemove(proc)
		proc.finish()
		return
	}
	idx := e.qpop()
	// Release the slot and its call entry before invoking, so the callback
	// can schedule new events straight into them and the engine retains no
	// reference to fired state.
	s := *e.slot(idx)
	e.qnode(idx).next, e.free = e.free, idx
	i := s.target >> 2
	ev := Event{Kind: s.kind, A: s.a, B: s.b, N: s.n, D: s.d}
	switch uint8(s.target & 3) {
	case dispatchCall:
		c := e.calls[i]
		e.calls[i] = nil
		//rtmw:ignore noalloc the free list holds at most every entry of calls, never grows per event
		e.freeCalls = append(e.freeCalls, i)
		if fn, ok := c.(func()); ok {
			fn()
		} else {
			c.(EventHandler).HandleEvent(ev)
		}
	case dispatchHandler:
		e.handlers[i].HandleEvent(ev)
	case dispatchProcIdle:
		e.procs[i].idleEvent()
	}
}

// RunUntil executes events in order until the queue is empty or the next
// event is strictly after the horizon. The clock finishes at the horizon (or
// at the last event time if later events remain).
//
//rtmw:noalloc
func (e *Engine) RunUntil(horizon time.Duration) {
	for {
		at, lane, proc, ok := e.next()
		if !ok || at > horizon {
			break
		}
		e.fire(at, lane, proc)
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

// PendingCount returns the number of scheduled, not-yet-fired events, link
// sends and processor completions included. It is O(1): the engine
// keeps a live counter instead of scanning the queue, so invariant audits
// inside hot test loops stay cheap.
func (e *Engine) PendingCount() int { return e.live }

// qpop removes the queue's top and returns its slot. Unless bucket 0 holds
// it, the base moves to its time and its bucket's timers move down, in
// order, into the empty buckets below; the top lands first in bucket 0,
// whose timers are all at the base.
//
//rtmw:noalloc
func (e *Engine) qpop() int32 {
	if b := bits.TrailingZeros64(e.nonEmpty); b > 0 {
		bk := e.buckets[b]
		e.nonEmpty &^= 1 << b
		e.base = e.qnode(bk.min).at
		for i := bk.head; ; {
			q := e.qnode(i)
			next := q.next
			e.bucketPush(bits.Len64(uint64(q.at^e.base)), i)
			if i == bk.tail {
				break
			}
			i = next
		}
	}
	e.queued--
	bk := &e.buckets[0]
	idx := bk.head
	if idx == bk.tail {
		e.nonEmpty &^= 1
	} else {
		bk.head = e.qnode(idx).next
		bk.min = bk.head
	}
	return idx
}

// bucketPush appends timer idx to bucket b.
//
//rtmw:noalloc
func (e *Engine) bucketPush(b int, idx int32) {
	bk := &e.buckets[b]
	if e.nonEmpty&(1<<b) == 0 {
		*bk = bucket{head: idx, tail: idx, min: idx}
		e.nonEmpty |= 1 << b
		return
	}
	e.qnode(bk.tail).next = idx
	bk.tail = idx
	if e.qnode(idx).at < e.qnode(bk.min).at {
		bk.min = idx
	}
}

// busyLess orders running processors by their completion's (at, seq).
func busyLess(a, b *Processor) bool {
	return a.doneAt < b.doneAt || (a.doneAt == b.doneAt && a.doneSeq < b.doneSeq)
}

// busyPush enters a running processor into the busy heap.
//
//rtmw:noalloc
func (e *Engine) busyPush(p *Processor) {
	e.work.BusyPushes++
	e.busy = append(e.busy, p)
	e.busyFix(len(e.busy) - 1)
}

// busyRemove takes a processor out of the busy heap.
//
//rtmw:noalloc
func (e *Engine) busyRemove(p *Processor) {
	e.work.BusyRemoves++
	n := len(e.busy) - 1
	last := e.busy[n]
	e.busy[n], e.busy = nil, e.busy[:n]
	if i := p.busyPos; i < n {
		e.busy[i] = last
		e.busyFix(i)
	}
	p.busyPos = -1
}

// busyFix sifts the busy heap's entry at i up or down to its place.
//
//rtmw:noalloc
func (e *Engine) busyFix(i int) {
	p, n := e.busy[i], len(e.busy)
	for i > 0 && busyLess(p, e.busy[(i-1)/2]) {
		e.busy[i] = e.busy[(i-1)/2]
		e.busy[i].busyPos = i
		i = (i - 1) / 2
	}
	for c := 2*i + 1; c < n; c = 2*i + 1 {
		if c+1 < n && busyLess(e.busy[c+1], e.busy[c]) {
			c++
		}
		if !busyLess(e.busy[c], p) {
			break
		}
		e.busy[i] = e.busy[c]
		e.busy[i].busyPos = i
		i = c
	}
	e.busy[i] = p
	p.busyPos = i
}
