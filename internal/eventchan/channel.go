// Package eventchan implements a federated real-time event channel in the
// style of TAO's federated event service, which the paper's architecture
// uses to connect all processors (Figure 1): each node runs a local event
// channel; gateways forward selected event types to peer channels over the
// ORB, where they are pushed to that node's local consumers.
//
// Events are typed and carry an opaque payload; consumers subscribe by event
// type and filter further in their handlers (consumer-side filtering, as in
// TAO's EC). The channel is built as a high-throughput event plane:
//
//   - The subscriber table is sharded by event type hash, so concurrent
//     publishers of unrelated types never contend on one lock; handler
//     lists are copy-on-write, so fan-out iterates without copying.
//   - Local delivery is synchronous in the pusher's goroutine.
//   - Remote forwarding batches: each peer gateway has a bounded pending
//     queue flushed by whichever pusher arrives first (group commit), so a
//     burst of events crosses the ORB as a few batch pushes instead of one
//     invocation each. A full pending queue either fails Push with
//     ErrBackpressure or throttles the pusher, per the channel's
//     OverflowPolicy.
//   - A sink may know which application processor its peer is. PushTo
//     forwards an event only one processor acts on to that processor's sink
//     (and to sinks of unknown processor) instead of to every sink of the
//     type; the other copies would have been discarded on arrival.
package eventchan

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/orb"
)

// ServantKey is the object key every channel registers on its node's ORB so
// peer gateways can push events to it.
const ServantKey = "eventchannel"

// Operations of the channel servant: the scalar push (PushUrgent, and
// batches of one) and the batch push the gateway's group-commit forwarder
// uses.
const (
	opPush      = "push"
	opPushBatch = "pushbatch"
)

// numShards fixes the subscriber-table shard count. Shard choice only needs
// to spread event types; 32 keeps the footprint trivial while making
// same-shard collisions of hot types unlikely.
const numShards = 32

// Gateway batching limits.
const (
	// sinkQueueDepth bounds a remote sink's pending-event queue.
	sinkQueueDepth = 8192
	// sinkBatchCap caps the events coalesced into one gateway push.
	sinkBatchCap = 256
	// maxBatchBytes caps a batch's encoded size, well under the ORB's
	// frame limit, so coalescing can never construct an unsendable frame
	// out of individually valid events.
	maxBatchBytes = 4 << 20
)

// ErrBackpressure reports that a remote sink's bounded pending queue was
// full, so the event was not forwarded to that sink. Local delivery still
// happened; callers on best-effort paths count and continue.
var ErrBackpressure = errors.New("eventchan: remote sink queue full")

// Event is one typed event. Payload encoding is up to the producing
// component (the live binding uses its fixed-layout codec, live/codec.go).
type Event struct {
	// Type routes the event to subscribers (e.g. "TaskArrive", "Accept").
	Type string
	// Source names the producing node, for diagnostics and tests.
	Source string
	// Payload is the marshaled event body. Delivery is zero-copy: a
	// remotely received Payload aliases the transport buffer (for a
	// batched push, the whole batch's buffer), and a local one aliases the
	// pusher's slice. Handlers that retain a payload past their return
	// must copy it.
	Payload []byte
}

// Handler consumes events. Handlers run synchronously in the delivery
// goroutine and must not block. For an event from a peer that goroutine is the
// reader of the peer's ORB connection, which delivers that peer's events one
// at a time in the order it pushed them: a handler may push further events
// (the reader then writes them), but must not wait for a later event from the
// same peer (orb package comment, the servant rule).
type Handler func(Event)

// OverflowPolicy selects what Push does when a remote sink's pending queue
// is full (see WithSinkPolicy).
type OverflowPolicy int

const (
	// DropNewest discards the incoming event and counts it.
	DropNewest OverflowPolicy = iota
	// Block makes the pusher wait for queue space (bounded-buffer
	// backpressure).
	Block
)

// Subscription is one consumer registration; Cancel removes it. The zero
// value is invalid — Subscribe returns live ones.
type Subscription struct {
	ch        *Channel
	eventType string
	h         Handler
}

// Cancel removes the subscription. It is idempotent.
func (s *Subscription) Cancel() { s.ch.removeSub(s) }

// shard is one slice of the subscriber and gateway tables. The slices it
// holds are copy-on-write: readers grab them under RLock and iterate lock-
// free; writers replace them wholesale.
type shard struct {
	mu    sync.RWMutex
	subs  map[string][]*Subscription
	sinks map[string][]*sink
}

// NoProcessor is the processor of a sink that was added without one: the
// gateway does not know which processor the peer is (the manager node is
// none), so every addressed push is still forwarded to it.
const NoProcessor = -1

// sink is the gateway state for one peer address, shared by every event
// type forwarded there so cross-type bursts batch together. Forwarding is
// group commit: a pusher appends to pending and, if no flush is in flight,
// becomes the flusher and drains pending in batches; pushers arriving
// mid-flight piggyback and return immediately.
type sink struct {
	addr string
	// proc is the application processor the peer is, or NoProcessor. PushTo
	// skips sinks known to be some other processor.
	proc atomic.Int64

	mu sync.Mutex
	// full is signaled by the flusher whenever it takes the backlog, waking
	// pushers blocked under the Block overflow policy.
	full    sync.Cond
	pending []Event
	// spare is the previous pending backing array, recycled once its batch
	// is flushed, so the two buffers ping-pong instead of the queue
	// reallocating as it slides.
	spare    []Event
	flushing bool

	batches atomic.Int64
	events  atomic.Int64
	dropped atomic.Int64
	errs    atomic.Int64
}

// PlaneStats is a snapshot of the channel's event-plane counters.
type PlaneStats struct {
	// Pushed counts local Push calls; Forwarded counts events handed to the
	// gateway path (every event × sink, the pre-batching unit).
	Pushed, Forwarded int64
	// ForwardBatches counts gateway ORB pushes; Forwarded/ForwardBatches is
	// the achieved federation batching factor.
	ForwardBatches int64
	// ForwardDropped counts events refused with ErrBackpressure.
	ForwardDropped int64
	// ForwardErrors counts failed gateway pushes (each may cover a batch).
	ForwardErrors int64
}

// Channel is one node's local event channel plus its gateway state.
type Channel struct {
	node       string
	orb        *orb.ORB
	sinkDepth  int
	sinkBatch  int
	sinkPolicy OverflowPolicy

	shards [numShards]shard
	seed   maphash.Seed

	sinksMu sync.Mutex
	sinks   map[string]*sink // addr → shared gateway state

	// names interns the Type and Source of received events.
	names orb.Interner

	closed    atomic.Bool
	pushed    atomic.Int64
	forwarded atomic.Int64
}

// Option configures a Channel.
type Option func(*Channel)

// WithSinkPolicy selects what Push does when a remote sink's pending queue
// is full: DropNewest (the default) sheds the event with ErrBackpressure;
// Block waits for the flusher to drain, bounding the pusher instead of the
// pusher's memory.
func WithSinkPolicy(p OverflowPolicy) Option {
	return func(c *Channel) { c.sinkPolicy = p }
}

// New creates the channel and registers its push servant on the node's ORB.
func New(node string, o *orb.ORB, opts ...Option) *Channel {
	c := &Channel{
		node:      node,
		orb:       o,
		sinkDepth: sinkQueueDepth,
		sinkBatch: sinkBatchCap,
		seed:      maphash.MakeSeed(),
		sinks:     make(map[string]*sink),
	}
	for _, opt := range opts {
		opt(c)
	}
	for i := range c.shards {
		c.shards[i].subs = make(map[string][]*Subscription)
		c.shards[i].sinks = make(map[string][]*sink)
	}
	o.RegisterServant(ServantKey, c.servant)
	return c
}

// Node returns the owning node's name.
func (c *Channel) Node() string { return c.node }

// shardFor hashes an event type onto its shard.
func (c *Channel) shardFor(eventType string) *shard {
	return &c.shards[maphash.String(c.seed, eventType)%numShards]
}

// Subscribe registers a local consumer for an event type. The handler runs
// synchronously in each pusher's goroutine. The returned subscription may be
// ignored by consumers that live as long as the channel.
func (c *Channel) Subscribe(eventType string, h Handler) *Subscription {
	if h == nil {
		panic("eventchan: nil handler")
	}
	s := &Subscription{ch: c, eventType: eventType, h: h}
	c.addSub(s)
	if c.closed.Load() {
		// Close may have scanned the shards before addSub landed; make the
		// late registration inert.
		s.Cancel()
	}
	return s
}

// addSub installs a subscription copy-on-write.
func (c *Channel) addSub(s *Subscription) {
	sh := c.shardFor(s.eventType)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.subs[s.eventType]
	next := make([]*Subscription, len(cur), len(cur)+1)
	copy(next, cur)
	sh.subs[s.eventType] = append(next, s)
}

// removeSub uninstalls a subscription copy-on-write.
func (c *Channel) removeSub(s *Subscription) {
	sh := c.shardFor(s.eventType)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.subs[s.eventType]
	next := make([]*Subscription, 0, len(cur))
	for _, other := range cur {
		if other != s {
			next = append(next, other)
		}
	}
	if len(next) == 0 {
		delete(sh.subs, s.eventType)
		return
	}
	sh.subs[s.eventType] = next
}

// AddRemoteSink configures the gateway to forward events of the given type
// to the peer channel at addr. Adding the same (type, addr) pair twice is a
// no-op. Sinks for the same address share one batching queue across event
// types.
func (c *Channel) AddRemoteSink(eventType, addr string) {
	c.AddProcessorSink(eventType, addr, NoProcessor)
}

// AddProcessorSink is AddRemoteSink for a peer known to be application
// processor proc, which lets PushTo leave it out of events addressed to
// another processor. The processor belongs to the address, not to the event
// type; NoProcessor leaves what is already known about the address alone.
func (c *Channel) AddProcessorSink(eventType, addr string, proc int) {
	c.sinksMu.Lock()
	snk, ok := c.sinks[addr]
	if !ok {
		snk = &sink{addr: addr}
		snk.proc.Store(NoProcessor)
		snk.full.L = &snk.mu
		c.sinks[addr] = snk
	}
	if proc != NoProcessor {
		snk.proc.Store(int64(proc))
	}
	c.sinksMu.Unlock()

	sh := c.shardFor(eventType)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.sinks[eventType]
	for _, s := range cur {
		if s.addr == addr {
			return
		}
	}
	next := make([]*sink, len(cur), len(cur)+1)
	copy(next, cur)
	sh.sinks[eventType] = append(next, snk)
}

// RemoveRemoteSink detaches the peer at addr from every event type and
// discards its pending backlog — the failover path prunes routes to a dead
// node so the gateway stops dialing it on every push. Removing an unknown
// address is a no-op. A concurrent flush to the removed sink may still fail
// (counted); no new events are queued to it afterwards.
func (c *Channel) RemoveRemoteSink(addr string) {
	c.sinksMu.Lock()
	snk, ok := c.sinks[addr]
	if ok {
		delete(c.sinks, addr)
	}
	c.sinksMu.Unlock()
	if !ok {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for ev, cur := range sh.sinks {
			next := make([]*sink, 0, len(cur))
			for _, s := range cur {
				if s.addr != addr {
					next = append(next, s)
				}
			}
			if len(next) == 0 {
				delete(sh.sinks, ev)
			} else if len(next) != len(cur) {
				sh.sinks[ev] = next
			}
		}
		sh.mu.Unlock()
	}
	// Drop the backlog and wake any pusher blocked on the full queue; the
	// events were bound for a dead peer.
	snk.mu.Lock()
	snk.dropped.Add(int64(len(snk.pending)))
	snk.pending = nil
	snk.full.Broadcast()
	snk.mu.Unlock()
}

// Push delivers the event to local subscribers and forwards it through the
// gateway to every configured remote sink. It returns the first forwarding
// error, after attempting all sinks; local delivery always happens. Under
// concurrency the forward may be batched with other in-flight pushes to the
// same peer, in which case a transport failure surfaces on the pusher that
// performed the flush and in ForwardErrors.
func (c *Channel) Push(ev Event) error {
	return c.push(ev, NoProcessor, (*Channel).sinkPush)
}

// PushTo is Push for an event only processor proc acts on: local delivery is
// the same, and the gateway forwards to the sinks that are proc or whose
// processor is unknown, skipping those known to be another processor. The
// destination is not carried on the wire — consumers filter on the payload
// exactly as they do for Push — so a skipped copy is one its receiver would
// have discarded. With no sink left for proc (never wired, or removed) the
// event is forwarded nowhere and PushTo returns nil.
func (c *Channel) PushTo(proc int, ev Event) error {
	return c.push(ev, proc, (*Channel).sinkPush)
}

// PushUrgent is Push for events that must not wait behind — or be shed
// with — a sink's pending backlog: it bypasses the gateway queue and sends
// one scalar ORB push per sink straight away, so it overtakes the events
// queued on this side and never returns ErrBackpressure. On the wire and at
// the peer it keeps its place: the connection delivers in order, so it is
// handled after the frames already written. Heartbeats use it to keep failure
// detection latency independent of the sender's event backlog.
func (c *Channel) PushUrgent(ev Event) error {
	return c.push(ev, NoProcessor, (*Channel).forwardSingle)
}

// push is the shared delivery pipeline; to restricts forwarding to one
// processor's sinks (NoProcessor: all of them) and forward selects the
// gateway path (group commit through the pending queue, or the immediate
// scalar push).
func (c *Channel) push(ev Event, to int, forward func(*Channel, *sink, Event) error) error {
	if ev.Source == "" {
		ev.Source = c.node
	}
	if err := validateEvent(ev); err != nil {
		return err
	}
	if c.closed.Load() {
		return fmt.Errorf("eventchan %s: closed", c.node)
	}
	c.pushed.Add(1)

	sh := c.shardFor(ev.Type)
	sh.mu.RLock()
	subs := sh.subs[ev.Type]
	sinks := sh.sinks[ev.Type]
	sh.mu.RUnlock()

	for _, s := range subs {
		s.h(ev)
	}
	var firstErr error
	for _, snk := range sinks {
		if to != NoProcessor {
			if p := int(snk.proc.Load()); p != NoProcessor && p != to {
				continue
			}
		}
		if err := forward(c, snk, ev); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// forwardSingle sends one event to one peer via the scalar push operation.
func (c *Channel) forwardSingle(snk *sink, ev Event) error {
	body, err := encodeEvent(ev)
	if err != nil {
		return err
	}
	c.forwarded.Add(1)
	snk.batches.Add(1)
	snk.events.Add(1)
	if err := c.orb.InvokeOneWay(snk.addr, ServantKey, opPush, body); err != nil {
		snk.errs.Add(1)
		return fmt.Errorf("eventchan %s: forward %s to %s: %w", c.node, ev.Type, snk.addr, err)
	}
	return nil
}

// sinkPush enqueues the event on the sink's bounded pending queue and
// flushes by group commit: the first pusher to find no flush in flight
// drains the queue in batches; later pushers piggyback their events onto
// the running flush and return immediately.
func (c *Channel) sinkPush(snk *sink, ev Event) error {
	snk.mu.Lock()
	if len(snk.pending) >= c.sinkDepth {
		if c.sinkPolicy == Block {
			for len(snk.pending) >= c.sinkDepth && !c.closed.Load() {
				snk.full.Wait()
			}
			if c.closed.Load() {
				snk.mu.Unlock()
				return fmt.Errorf("eventchan %s: closed", c.node)
			}
		} else {
			snk.dropped.Add(1)
			snk.mu.Unlock()
			return fmt.Errorf("eventchan %s: sink %s: %w", c.node, snk.addr, ErrBackpressure)
		}
	}
	snk.pending = append(snk.pending, ev)
	if snk.flushing {
		snk.mu.Unlock()
		return nil
	}
	snk.flushing = true
	var firstErr error
	for len(snk.pending) > 0 {
		// Take the whole backlog and swap in the recycled buffer, so the
		// queue never reallocates as it slides.
		taken := snk.pending
		snk.pending = snk.spare[:0]
		snk.spare = nil
		snk.full.Broadcast()
		snk.mu.Unlock()

		var err error
		for off := 0; off < len(taken); {
			// Chunk by count and by encoded bytes: events are individually
			// frameable, and the byte cap keeps every coalesced frame that
			// way too.
			end, bytes := off, 0
			for end < len(taken) && end-off < c.sinkBatch {
				sz := 4 + 2 + len(taken[end].Type) + 2 + len(taken[end].Source) + len(taken[end].Payload)
				if end > off && bytes+sz > maxBatchBytes {
					break
				}
				bytes += sz
				end++
			}
			if e := c.flushBatch(snk, taken[off:end]); e != nil && err == nil {
				err = e
			}
			off = end
		}
		// Drop payload references before recycling the buffer.
		clear(taken)

		snk.mu.Lock()
		snk.spare = taken[:0]
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	snk.flushing = false
	snk.mu.Unlock()
	return firstErr
}

// flushBatch pushes one batch to the peer over the ORB. A single event uses
// the scalar operation (no envelope); larger batches use the batch
// operation.
func (c *Channel) flushBatch(snk *sink, batch []Event) error {
	var (
		body []byte
		op   string
		err  error
	)
	if len(batch) == 1 {
		op = opPush
		body, err = encodeEvent(batch[0])
	} else {
		op = opPushBatch
		body, err = encodeBatch(batch)
	}
	if err != nil {
		// Field lengths are validated at Push and batches are chunked under
		// the frame limit, but a single oversized event can still fail here
		// — exactly as it would on the scalar path.
		snk.errs.Add(1)
		return err
	}
	c.forwarded.Add(int64(len(batch)))
	snk.batches.Add(1)
	snk.events.Add(int64(len(batch)))
	// The invocation writes the frame to the socket before it returns unless
	// another sender's flush carries it. A full ORB pending list blocks here
	// rather than shedding the batch: this sink's own pending queue is the
	// only shedding layer.
	if err = c.orb.InvokeOneWay(snk.addr, ServantKey, op, body); err != nil {
		snk.errs.Add(1)
		return fmt.Errorf("eventchan %s: forward %d event(s) to %s: %w", c.node, len(batch), snk.addr, err)
	}
	return nil
}

// servant receives pushes from peer gateways and delivers them locally only
// (no re-forwarding: the deployment engine configures a single-hop
// federation, so events cannot loop). Pushes are one-way, so it runs on the
// peer connection's reader: a peer's events reach the subscribers in the
// order that peer pushed them.
func (c *Channel) servant(op string, arg []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("eventchan %s: closed", c.node)
	}
	switch op {
	case opPush:
		ev, err := decodeEvent(&c.names, arg)
		if err != nil {
			return nil, err
		}
		c.deliverLocal(ev)
		return nil, nil
	case opPushBatch:
		events, err := decodeBatch(&c.names, arg)
		if err != nil {
			return nil, err
		}
		// Memoize the shard lookup across a run of same-typed events (the
		// common case for a gateway batch). Subscriptions added mid-batch
		// see the next run; the COW slices make the stale view safe.
		var (
			lastType string
			subs     []*Subscription
			have     bool
		)
		for _, ev := range events {
			if !have || ev.Type != lastType {
				sh := c.shardFor(ev.Type)
				sh.mu.RLock()
				subs = sh.subs[ev.Type]
				sh.mu.RUnlock()
				lastType, have = ev.Type, true
			}
			for _, s := range subs {
				s.h(ev)
			}
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("eventchan %s: unknown operation %q", c.node, op)
	}
}

// deliverLocal fans one event out to the local subscribers only.
func (c *Channel) deliverLocal(ev Event) {
	sh := c.shardFor(ev.Type)
	sh.mu.RLock()
	subs := sh.subs[ev.Type]
	sh.mu.RUnlock()
	for _, s := range subs {
		s.h(ev)
	}
}

// Close stops accepting pushes and cancels every subscription. The owning
// ORB's shutdown tears down the transport.
func (c *Channel) Close() {
	c.closed.Store(true)
	// Wake pushers blocked on full sinks so they observe the close.
	c.sinksMu.Lock()
	for _, snk := range c.sinks {
		snk.mu.Lock()
		snk.full.Broadcast()
		snk.mu.Unlock()
	}
	c.sinksMu.Unlock()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var all []*Subscription
		for _, subs := range sh.subs {
			all = append(all, subs...)
		}
		sh.mu.Unlock()
		for _, s := range all {
			s.Cancel()
		}
	}
}

// Stats returns the local-push and remote-forward counters.
func (c *Channel) Stats() (pushed, forwarded int64) {
	return c.pushed.Load(), c.forwarded.Load()
}

// PlaneStats snapshots the event-plane counters across all sinks.
func (c *Channel) PlaneStats() PlaneStats {
	ps := PlaneStats{
		Pushed:    c.pushed.Load(),
		Forwarded: c.forwarded.Load(),
	}
	c.sinksMu.Lock()
	defer c.sinksMu.Unlock()
	for _, snk := range c.sinks {
		ps.ForwardBatches += snk.batches.Load()
		ps.ForwardDropped += snk.dropped.Load()
		ps.ForwardErrors += snk.errs.Load()
	}
	return ps
}
