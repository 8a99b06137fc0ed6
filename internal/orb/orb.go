// Package orb is a compact object request broker: the RPC substrate the live
// middleware binding runs on, substituting for the TAO real-time CORBA ORB
// the paper built on. It provides request/reply and one-way invocations on
// named servants over persistent TCP connections with connection reuse.
//
// The wire protocol is a simple length-prefixed framing (see message.go);
// argument bodies are opaque byte slices, encoded by callers (the event plane
// carries the live binding's fixed-layout payloads; the cold request/reply
// facets and the deployment tools use encoding/gob). The broker preserves the
// properties the paper's services rely on: low per-call overhead and
// concurrent dispatch of independent requests.
//
// Ordering: the one-way frames of one connection are written, read and
// dispatched in the order their senders entered the writer: the connection's
// reading goroutine runs each one-way servant call itself, one after the
// other. Two-way requests are dispatched concurrently, each on its own
// goroutine, and may overtake or be overtaken by anything else on the
// connection.
//
// The servant rule that buys this: a one-way call runs on its connection's
// reader, so it must not wait for a later frame of the same connection — a
// reply, an acknowledgement, another event — because nothing reads that frame
// until the call returns. It may write (push events, invoke one-way on any
// ORB); in the event plane those writes are acyclic per connection
// (DESIGN.md "One reader per connection"). A servant that must wait takes requests.
package orb

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Handler is a servant's dispatch entry point: it receives the operation
// name and the marshaled argument, and returns the marshaled result.
// Returning an error sends an exception reply to the caller. One-way
// invocations of one connection arrive one at a time, in order, on that
// connection's reader (see the package comment for what they must not do);
// requests arrive concurrently.
type Handler func(op string, arg []byte) ([]byte, error)

// invokeTimeout is the deadline applied to dials and to Invoke calls whose
// context carries none.
const invokeTimeout = 5 * time.Second

// ORB is one node's object request broker: a server endpoint hosting
// servants plus a client-side connection pool. The zero value is not usable;
// call New.
type ORB struct {
	name  string
	stats transportStats

	mu       sync.Mutex
	servants map[string]Handler
	listener net.Listener
	clients  map[string]*clientConn
	inbound  map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup
}

// New returns an ORB named for diagnostics.
func New(name string) *ORB {
	return &ORB{
		name:     name,
		servants: make(map[string]Handler),
		clients:  make(map[string]*clientConn),
		inbound:  make(map[net.Conn]struct{}),
	}
}

// TransportStats snapshots the transport counters across all of the ORB's
// connections: frames, flush syscalls (their ratio is the achieved batching
// factor) and bytes written, and inbound frames dropped.
func (o *ORB) TransportStats() TransportStats { return o.stats.snapshot() }

// Name returns the ORB's diagnostic name.
func (o *ORB) Name() string { return o.name }

// RegisterServant binds a handler to an object key. Registering an existing
// key replaces the previous servant.
func (o *ORB) RegisterServant(key string, h Handler) {
	if h == nil {
		panic("orb: nil handler")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.servants[key] = h
}

// lookup finds a servant.
func (o *ORB) lookup(key string) (Handler, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.servants[key]
	return h, ok
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. It may be called at most once.
func (o *ORB) Listen(addr string) (net.Addr, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil, errors.New("orb: already shut down")
	}
	if o.listener != nil {
		return nil, errors.New("orb: already listening")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("orb %s: listen: %w", o.name, err)
	}
	o.listener = ln
	o.wg.Add(1)
	go o.acceptLoop(ln)
	return ln.Addr(), nil
}

// Addr returns the bound listen address, or nil before Listen.
func (o *ORB) Addr() net.Addr {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.listener == nil {
		return nil
	}
	return o.listener.Addr()
}

// acceptLoop serves inbound connections until the listener closes.
func (o *ORB) acceptLoop(ln net.Listener) {
	defer o.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			conn.Close()
			return
		}
		o.inbound[conn] = struct{}{}
		o.mu.Unlock()
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			defer func() {
				o.mu.Lock()
				delete(o.inbound, conn)
				o.mu.Unlock()
			}()
			o.serveConn(conn)
		}()
	}
}

// serveConn is one inbound connection's reader: it reads every frame through
// one buffer and runs one-way frames itself, in arrival order, so their
// servant calls are written, read and dispatched in order per connection;
// requests get a goroutine each and run concurrently. Shutdown waits for the
// reader, and so for the one-way call it is in. Replies go through the
// connection's group-commit writer, so concurrent handlers cannot interleave
// frames and bursts of replies coalesce into one flush.
func (o *ORB) serveConn(conn net.Conn) {
	defer conn.Close()
	w := newConnWriter(conn, sendQueueDepth, writeBatch, &o.stats, &o.wg)
	defer w.close()
	fr := newFrameReader(conn)
	for {
		msg, err := fr.readMessage()
		if err != nil {
			return
		}
		switch msg.kind {
		case msgOneWay:
			o.dispatch(w, msg)
		case msgRequest:
			o.wg.Add(1)
			go func(m message) {
				defer o.wg.Done()
				o.dispatch(w, m)
			}(msg)
		default:
			// A reply on a server connection: the peer is confused.
			o.stats.dropped.Add(1)
		}
	}
}

// dispatch invokes the servant and, for two-way requests, writes the reply.
func (o *ORB) dispatch(w *connWriter, m message) {
	h, ok := o.lookup(m.key)
	var (
		body []byte
		err  error
	)
	if !ok {
		err = fmt.Errorf("orb %s: no servant %q", o.name, m.key)
	} else {
		body, err = h(m.op, m.body)
	}
	if m.kind == msgOneWay {
		return
	}
	reply := message{kind: msgReply, id: m.id}
	if err != nil {
		reply.status = statusException
		reply.body = []byte(err.Error())
	} else {
		reply.status = statusOK
		reply.body = body
	}
	// Replies block on a full pending list (never dropped); write errors
	// are ignored — the peer tears the connection down and retries.
	_ = w.send(reply)
}

// Invoke performs a two-way invocation on the servant key at addr. The
// context bounds the call; without a deadline invokeTimeout applies.
func (o *ORB) Invoke(ctx context.Context, addr, key, op string, arg []byte) ([]byte, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, invokeTimeout)
		defer cancel()
	}
	cc, err := o.client(addr)
	if err != nil {
		return nil, err
	}
	return cc.invoke(ctx, key, op, arg)
}

// InvokeOneWay sends a request without waiting for a reply (the event-push
// pattern of the federated event channel). The caller that finds the
// connection idle writes the frame to the socket itself before returning; one
// that finds a flush in flight leaves the frame with it. A full pending list
// applies backpressure by blocking until the flusher takes the backlog or the
// connection dies.
func (o *ORB) InvokeOneWay(addr, key, op string, arg []byte) error {
	cc, err := o.client(addr)
	if err != nil {
		return err
	}
	return cc.oneWay(key, op, arg)
}

// client returns (dialing if necessary) the pooled connection to addr.
func (o *ORB) client(addr string) (*clientConn, error) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil, errors.New("orb: shut down")
	}
	cc, ok := o.clients[addr]
	if ok && !cc.broken() {
		o.mu.Unlock()
		return cc, nil
	}
	o.mu.Unlock()

	// Dial outside the lock; racing dials are reconciled below.
	nc, err := net.DialTimeout("tcp", addr, invokeTimeout)
	if err != nil {
		return nil, fmt.Errorf("orb %s: dial %s: %w", o.name, addr, err)
	}
	fresh := newClientConn(nc)

	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		nc.Close()
		return nil, errors.New("orb: shut down")
	}
	if cur, ok := o.clients[addr]; ok && !cur.broken() {
		nc.Close()
		return cur, nil
	}
	fresh.writer = newConnWriter(nc, sendQueueDepth, writeBatch, &o.stats, &o.wg)
	o.clients[addr] = fresh
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		fresh.readLoop()
	}()
	return fresh, nil
}

// Shutdown closes the listener and all connections and waits for every
// served request and background goroutine to finish.
func (o *ORB) Shutdown() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		o.wg.Wait()
		return
	}
	o.closed = true
	ln := o.listener
	clients := make([]*clientConn, 0, len(o.clients))
	for _, cc := range o.clients {
		clients = append(clients, cc)
	}
	served := make([]net.Conn, 0, len(o.inbound))
	for conn := range o.inbound {
		served = append(served, conn)
	}
	o.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, cc := range clients {
		cc.close()
	}
	for _, conn := range served {
		conn.Close()
	}
	o.wg.Wait()
}
