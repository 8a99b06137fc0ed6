package orb

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
)

// ErrConnectionClosed reports that the pooled connection died before the
// reply arrived; the caller may retry, which dials a fresh connection.
var ErrConnectionClosed = errors.New("orb: connection closed")

// RemoteError is an exception reply raised by a remote servant.
type RemoteError struct {
	// Message is the servant's error text.
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string { return "orb: remote exception: " + e.Message }

// clientConn is one pooled outbound connection with request/reply
// correlation: the readLoop demultiplexes replies to waiting invokers by
// request id. All writes go through the connection's group-commit writer.
type clientConn struct {
	conn   net.Conn
	writer *connWriter

	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]chan message
	dead    bool
}

// newClientConn wraps an established connection. The owner must attach a
// writer and start readLoop in a goroutine it tracks.
func newClientConn(conn net.Conn) *clientConn {
	return &clientConn{
		conn:    conn,
		waiting: make(map[uint64]chan message),
	}
}

// broken reports whether the connection has failed.
func (c *clientConn) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// close tears the connection down and fails all waiters.
func (c *clientConn) close() {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	waiters := c.waiting
	c.waiting = make(map[uint64]chan message)
	c.mu.Unlock()
	c.writer.close()
	c.conn.Close()
	for _, ch := range waiters {
		close(ch)
	}
}

// readLoop demultiplexes replies until the connection fails.
func (c *clientConn) readLoop() {
	fr := newFrameReader(c.conn)
	for {
		m, err := fr.readMessage()
		if err != nil {
			c.close()
			return
		}
		if m.kind != msgReply {
			c.writer.stats.dropped.Add(1)
			continue
		}
		c.mu.Lock()
		ch, ok := c.waiting[m.id]
		delete(c.waiting, m.id)
		c.mu.Unlock()
		if ok {
			ch <- m
		}
	}
}

// send frames and transmits one message. Transport failures tear the
// connection down; validation errors leave it healthy.
func (c *clientConn) send(m message) error {
	if c.broken() {
		return ErrConnectionClosed
	}
	if err := c.writer.send(m); err != nil {
		if errors.Is(err, ErrConnectionClosed) {
			c.close()
		}
		return err
	}
	return nil
}

// invoke performs a two-way call.
func (c *clientConn) invoke(ctx context.Context, key, op string, arg []byte) ([]byte, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return nil, ErrConnectionClosed
	}
	c.nextID++
	id := c.nextID
	ch := make(chan message, 1)
	c.waiting[id] = ch
	c.mu.Unlock()

	err := c.send(message{kind: msgRequest, id: id, key: key, op: op, body: arg})
	if err != nil {
		c.mu.Lock()
		delete(c.waiting, id)
		c.mu.Unlock()
		return nil, err
	}

	select {
	case m, ok := <-ch:
		if !ok {
			return nil, ErrConnectionClosed
		}
		if m.status == statusException {
			return nil, &RemoteError{Message: string(m.body)}
		}
		return m.body, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.waiting, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("orb: invoke %s.%s: %w", key, op, ctx.Err())
	}
}

// oneWay sends a request without reply correlation.
func (c *clientConn) oneWay(key, op string, arg []byte) error {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	return c.send(message{kind: msgOneWay, id: id, key: key, op: op, body: arg})
}
