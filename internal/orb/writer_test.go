package orb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// waitFrames polls until the stats report n frames sent or the deadline
// passes.
func waitFrames(t *testing.T, stats *transportStats, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if stats.frames.Load() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("writer flushed %d frames, want %d", stats.frames.Load(), n)
}

// TestBatchedWriterDifferential feeds a random message sequence through the
// batched writer and asserts the byte stream is identical to the
// pre-batching reference path (sequential writeMessage calls): batching must
// only coalesce syscalls, never change the wire format.
func TestBatchedWriterDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	msgs := make([]message, 200)
	for i := range msgs {
		m := message{id: uint64(i)}
		switch rng.Intn(3) {
		case 0:
			m.kind = msgRequest
		case 1:
			m.kind = msgOneWay
		case 2:
			m.kind = msgReply
			m.status = byte(rng.Intn(2))
		}
		if m.kind != msgReply {
			m.key = fmt.Sprintf("key-%d", rng.Intn(10))
			m.op = fmt.Sprintf("op-%d", rng.Intn(10))
		}
		m.body = make([]byte, rng.Intn(512))
		rng.Read(m.body)
		msgs[i] = m
	}

	var want bytes.Buffer
	for _, m := range msgs {
		if err := writeMessage(&want, m); err != nil {
			t.Fatal(err)
		}
	}

	client, server := net.Pipe()
	gotCh := make(chan []byte, 1)
	go func() {
		all, _ := io.ReadAll(server)
		gotCh <- all
	}()

	var stats transportStats
	var wg sync.WaitGroup
	w := newConnWriter(client, 16, 8, &stats, &wg)
	for _, m := range msgs {
		if err := w.send(m); err != nil {
			t.Errorf("send %+v: %v", m, err)
		}
	}
	waitFrames(t, &stats, int64(len(msgs)))
	w.close()
	wg.Wait()
	client.Close()

	got := <-gotCh
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("batched stream (%d bytes) differs from sequential writeMessage stream (%d bytes)",
			len(got), want.Len())
	}
	if stats.flushes.Load() > stats.frames.Load() {
		t.Errorf("flushes %d > frames %d", stats.flushes.Load(), stats.frames.Load())
	}
}

// TestWriterConcurrentIntegrity hammers one group-commit writer from many
// goroutines and verifies every frame arrives intact and exactly once, and
// that senders arriving mid-flush were carried by it: coalesced flushes must
// never interleave or drop frames, and there must be fewer of them than
// frames. The peer starts reading only once the socket buffers (32 MB is
// sent, more than they hold) and the pending list are full, so a backlog
// exists on any scheduler.
func TestWriterConcurrentIntegrity(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const senders, perSender = 16, 2000
	seen := make(chan uint64, senders*perSender)
	accepted := make(chan struct{})
	startReading := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		close(accepted)
		defer conn.Close()
		<-startReading
		fr := newFrameReader(conn)
		for {
			m, err := fr.readMessage()
			if err != nil {
				close(seen)
				return
			}
			seen <- m.id
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-accepted
	const depth = 64
	var stats transportStats
	var wg sync.WaitGroup
	w := newConnWriter(conn, depth, 32, &stats, &wg)

	body := make([]byte, 1024)
	var sendWG sync.WaitGroup
	for s := 0; s < senders; s++ {
		sendWG.Add(1)
		go func(s int) {
			defer sendWG.Done()
			for i := 0; i < perSender; i++ {
				id := uint64(s*perSender + i + 1)
				m := message{kind: msgOneWay, id: id, key: "k", op: "o", body: body}
				if err := w.send(m); err != nil {
					t.Errorf("send %d: %v", id, err)
					return
				}
			}
		}(s)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		full := len(w.pending) >= depth
		w.mu.Unlock()
		if full {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("senders never filled the pending list of a connection nobody reads")
		}
	}
	close(startReading)
	sendWG.Wait()
	waitFrames(t, &stats, senders*perSender)
	w.close()
	wg.Wait()
	conn.Close()

	got := make(map[uint64]bool, senders*perSender)
	for id := range seen {
		if got[id] {
			t.Fatalf("frame id %d delivered twice", id)
		}
		got[id] = true
	}
	if len(got) != senders*perSender {
		t.Fatalf("received %d frames, want %d", len(got), senders*perSender)
	}
	if f, fl := stats.frames.Load(), stats.flushes.Load(); fl >= f {
		t.Errorf("no coalescing: %d flushes for %d frames", fl, f)
	}
}

// stalledWriter returns a writer of the given depth over a pipe nobody reads
// yet, with one sender already inside the flush (blocked in the write) and
// the pending list filled to depth behind it. first receives that sender's
// result.
func stalledWriter(t *testing.T, depth int) (w *connWriter, stats *transportStats, peer net.Conn, first chan error) {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close(); server.Close() })
	stats = new(transportStats)
	w = newConnWriter(client, depth, 4, stats, new(sync.WaitGroup))
	first = make(chan error, 1)
	go func() { first <- w.send(message{kind: msgOneWay, id: 0, key: "k", op: "o"}) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		inFlush := w.flushing && len(w.pending) == 0
		w.mu.Unlock()
		if inFlush {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first sender never started its flush")
		}
		time.Sleep(time.Millisecond)
	}
	// These find a flush in flight: they append and return.
	for i := 1; i <= depth; i++ {
		if err := w.send(message{kind: msgOneWay, id: uint64(i), key: "k", op: "o"}); err != nil {
			t.Fatalf("send %d behind a stalled flush: %v", i, err)
		}
	}
	return w, stats, server, first
}

// blockSenders starts n senders against a full pending list and returns the
// channel their results arrive on, once none of them has returned for a
// while.
func blockSenders(t *testing.T, w *connWriter, depth, n int) chan error {
	t.Helper()
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		id := uint64(depth + 1 + i)
		go func() { results <- w.send(message{kind: msgOneWay, id: id, key: "k", op: "o"}) }()
	}
	select {
	case err := <-results:
		t.Fatalf("a sender got past a full pending list: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	return results
}

// TestWriterBlocksAtDepthAndResumes: with a peer that stops reading, senders
// fill the pending list and then block; when the peer reads again they
// resume and every frame arrives, in order of entry.
func TestWriterBlocksAtDepthAndResumes(t *testing.T) {
	const depth, extra = 8, 5
	w, stats, peer, first := stalledWriter(t, depth)
	results := blockSenders(t, w, depth, extra)
	w.mu.Lock()
	if n := len(w.pending); n != depth {
		t.Errorf("pending list holds %d frames with senders blocked, want %d", n, depth)
	}
	w.mu.Unlock()

	ids := make(chan uint64, depth+extra+1)
	go func() {
		fr := newFrameReader(peer)
		for {
			m, err := fr.readMessage()
			if err != nil {
				close(ids)
				return
			}
			ids <- m.id
		}
	}()
	if err := <-first; err != nil {
		t.Errorf("flusher: %v", err)
	}
	for i := 0; i < extra; i++ {
		if err := <-results; err != nil {
			t.Errorf("blocked sender: %v", err)
		}
	}
	waitFrames(t, stats, depth+extra+1)
	for want := uint64(0); want <= depth; want++ {
		if got := <-ids; got != want {
			t.Fatalf("frame %d arrived where %d was sent", got, want)
		}
	}
	if f, fl := stats.frames.Load(), stats.flushes.Load(); fl >= f {
		t.Errorf("backlog of %d frames went out in %d flushes", f, fl)
	}
}

// TestWriterCloseDuringBlockedFlush: closing the writer and its connection
// while a flush is stuck in the kernel fails the flusher and every sender
// waiting for space, and nobody — then or later — is told a frame went out.
func TestWriterCloseDuringBlockedFlush(t *testing.T) {
	const depth, extra = 8, 5
	w, stats, _, first := stalledWriter(t, depth)
	results := blockSenders(t, w, depth, extra)

	w.close()
	w.conn.Close()
	if err := <-first; !errors.Is(err, ErrConnectionClosed) {
		t.Errorf("flusher returned %v, want ErrConnectionClosed", err)
	}
	for i := 0; i < extra; i++ {
		if err := <-results; !errors.Is(err, ErrConnectionClosed) {
			t.Errorf("blocked sender returned %v, want ErrConnectionClosed", err)
		}
	}
	if err := w.send(message{kind: msgOneWay, key: "k", op: "o"}); !errors.Is(err, ErrConnectionClosed) {
		t.Errorf("send after close returned %v, want ErrConnectionClosed", err)
	}
	if f := stats.frames.Load(); f != 0 {
		t.Errorf("%d frames counted as sent on a connection nobody read", f)
	}
	w.flushes.Wait()
}

// failingConn is a connection whose writes fail.
type failingConn struct{ net.Conn }

func (failingConn) Write([]byte) (int, error) { return 0, errors.New("injected write error") }

// TestWriteErrorTearsDownAndRedials: a failed write closes the connection,
// surfaces as ErrConnectionClosed, and the next one-way invocation dials a
// fresh connection and is delivered.
func TestWriteErrorTearsDownAndRedials(t *testing.T) {
	server, addr, client := newPair(t)
	delivered := make(chan string, 4)
	server.RegisterServant("sink", func(op string, arg []byte) ([]byte, error) {
		delivered <- string(arg)
		return nil, nil
	})
	expect := func(want string) {
		t.Helper()
		select {
		case got := <-delivered:
			if got != want {
				t.Fatalf("delivered %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%q never delivered", want)
		}
	}
	if err := client.InvokeOneWay(addr, "sink", "op", []byte("one")); err != nil {
		t.Fatal(err)
	}
	expect("one")

	client.mu.Lock()
	cc := client.clients[addr]
	client.mu.Unlock()
	cc.writer.conn = failingConn{cc.conn}
	if err := client.InvokeOneWay(addr, "sink", "op", []byte("lost")); !errors.Is(err, ErrConnectionClosed) {
		t.Fatalf("invoke over a failing connection returned %v, want ErrConnectionClosed", err)
	}
	if !cc.broken() {
		t.Error("connection still pooled as healthy after a write error")
	}
	if _, err := cc.conn.Write(nil); err == nil {
		t.Error("socket left open after a write error")
	}

	if err := client.InvokeOneWay(addr, "sink", "op", []byte("two")); err != nil {
		t.Fatalf("invoke after teardown: %v", err)
	}
	expect("two")
	client.mu.Lock()
	fresh := client.clients[addr]
	client.mu.Unlock()
	if fresh == cc {
		t.Error("the broken connection was reused")
	}
}
