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
//   - Remote forwarding is one one-way ORB push per event and sink. The
//     ORB's per-connection writer is the plane's only queue: it coalesces
//     concurrent pushes to one peer into one write, and a full connection
//     blocks its pushers.
//   - A sink may know which application processor its peer is. PushTo
//     forwards an event only one processor acts on to that processor's sink
//     (and to sinks of unknown processor) instead of to every sink of the
//     type; the other copies would have been discarded on arrival.
package eventchan

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/orb"
)

// ServantKey is the object key every channel registers on its node's ORB so
// peer gateways can push events to it.
const ServantKey = "eventchannel"

// opPush is the channel servant's one operation: deliver one event.
const opPush = "push"

// numShards fixes the subscriber-table shard count. Shard choice only needs
// to spread event types; 32 keeps the footprint trivial while making
// same-shard collisions of hot types unlikely.
const numShards = 32

// Event is one typed event. Payload encoding is up to the producing
// component (the live binding uses its fixed-layout codec, live/codec.go).
type Event struct {
	// Type routes the event to subscribers (e.g. "TaskArrive", "Accept").
	Type string
	// Source names the producing node, for diagnostics and tests.
	Source string
	// Payload is the marshaled event body. Delivery is zero-copy: a
	// remotely received Payload aliases the transport buffer, and a local
	// one aliases the pusher's slice. Handlers that retain a payload past
	// their return must copy it.
	Payload []byte
}

// Handler consumes events. Handlers run synchronously in the delivery
// goroutine and must not block. For an event from a peer that goroutine is the
// reader of the peer's ORB connection, which delivers that peer's events one
// at a time in the order it pushed them: a handler may push further events
// (the reader then writes them), but must not wait for a later event from the
// same peer (orb package comment, the servant rule).
type Handler func(Event)

// OverflowPolicy names what Push does when a peer's connection is full. There
// is one, Block; the type, Block and WithSinkPolicy exist only because
// benchmark/probe_eventchan.go calls them.
type OverflowPolicy int

// Block makes the pusher wait until the ORB writer takes the connection's
// backlog. It is what every channel does.
const Block OverflowPolicy = 1

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
// type forwarded there.
type sink struct {
	addr string
	// proc is the application processor the peer is, or NoProcessor. PushTo
	// skips sinks known to be some other processor.
	proc atomic.Int64
}

// PlaneStats is a snapshot of the channel's event-plane counters.
type PlaneStats struct {
	// Pushed counts local Push calls; Forwarded counts events handed to the
	// ORB (every event × sink, one frame each).
	Pushed, Forwarded int64
	// ForwardErrors counts forwards the ORB refused.
	ForwardErrors int64
}

// Channel is one node's local event channel plus its gateway state.
type Channel struct {
	node string
	orb  *orb.ORB

	shards [numShards]shard
	seed   maphash.Seed

	sinksMu sync.Mutex
	sinks   map[string]*sink // addr → shared gateway state

	// names interns the Type and Source of received events.
	names orb.Interner

	closed      atomic.Bool
	pushed      atomic.Int64
	forwarded   atomic.Int64
	forwardErrs atomic.Int64
}

// Option configures a Channel. WithSinkPolicy is the only one, and it changes
// nothing.
type Option func(*Channel)

// WithSinkPolicy is a no-op: Block, the only policy, is what every channel
// does.
func WithSinkPolicy(OverflowPolicy) Option { return func(*Channel) {} }

// New creates the channel and registers its push servant on the node's ORB.
// The options change nothing (see WithSinkPolicy).
func New(node string, o *orb.ORB, _ ...Option) *Channel {
	c := &Channel{
		node:  node,
		orb:   o,
		seed:  maphash.MakeSeed(),
		sinks: make(map[string]*sink),
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
// no-op.
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

// RemoveRemoteSink detaches the peer at addr from every event type — the
// failover path prunes routes to a dead node so the gateway stops dialing it
// on every push. Removing an unknown address is a no-op. A push already
// forwarding to the removed sink may still fail (counted); no new events are
// forwarded to it afterwards.
func (c *Channel) RemoveRemoteSink(addr string) {
	c.sinksMu.Lock()
	_, ok := c.sinks[addr]
	delete(c.sinks, addr)
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
}

// Push delivers the event to local subscribers and forwards it through the
// gateway to every configured remote sink, one one-way ORB push each. It
// returns the first forwarding error, after attempting all sinks; local
// delivery always happens. The ORB may carry the frame in another sender's
// flush to the same peer, in which case a write failure surfaces on that
// sender and in ForwardErrors. A pusher whose peer connection is full waits
// until the ORB writer takes the backlog.
func (c *Channel) Push(ev Event) error {
	return c.PushTo(NoProcessor, ev)
}

// PushTo is Push for an event only processor proc acts on: local delivery is
// the same, and the gateway forwards to the sinks that are proc or whose
// processor is unknown, skipping those known to be another processor. The
// destination is not carried on the wire — consumers filter on the payload
// exactly as they do for Push — so a skipped copy is one its receiver would
// have discarded. With no sink left for proc (never wired, or removed) the
// event is forwarded nowhere and PushTo returns nil. PushTo(NoProcessor, ev)
// is Push.
func (c *Channel) PushTo(proc int, ev Event) error {
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
	var (
		body     []byte
		firstErr error
	)
	for _, snk := range sinks {
		if proc != NoProcessor {
			if p := int(snk.proc.Load()); p != NoProcessor && p != proc {
				continue
			}
		}
		if body == nil {
			// The ORB frames a copy, so every sink shares one encoding.
			var err error
			if body, err = encodeEvent(ev); err != nil {
				return err
			}
		}
		c.forwarded.Add(1)
		if err := c.orb.InvokeOneWay(snk.addr, ServantKey, opPush, body); err != nil {
			c.forwardErrs.Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("eventchan %s: forward %s to %s: %w", c.node, ev.Type, snk.addr, err)
			}
		}
	}
	return firstErr
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
	if op != opPush {
		return nil, fmt.Errorf("eventchan %s: unknown operation %q", c.node, op)
	}
	ev, err := decodeEvent(&c.names, arg)
	if err != nil {
		return nil, err
	}
	c.deliverLocal(ev)
	return nil, nil
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

// PlaneStats snapshots the event-plane counters.
func (c *Channel) PlaneStats() PlaneStats {
	return PlaneStats{
		Pushed:        c.pushed.Load(),
		Forwarded:     c.forwarded.Load(),
		ForwardErrors: c.forwardErrs.Load(),
	}
}
