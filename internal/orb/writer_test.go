package orb

import (
	"bytes"
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

// TestWriterConcurrentIntegrity hammers one batched writer from many
// goroutines and verifies every frame arrives intact and exactly once:
// coalesced flushes must never interleave or drop frames.
func TestWriterConcurrentIntegrity(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const senders, perSender = 16, 200
	seen := make(chan uint64, senders*perSender)
	accepted := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		close(accepted)
		defer conn.Close()
		for {
			m, err := readMessage(conn)
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
	var stats transportStats
	var wg sync.WaitGroup
	w := newConnWriter(conn, 64, 32, &stats, &wg)

	var sendWG sync.WaitGroup
	for s := 0; s < senders; s++ {
		sendWG.Add(1)
		go func(s int) {
			defer sendWG.Done()
			for i := 0; i < perSender; i++ {
				id := uint64(s*perSender + i + 1)
				m := message{kind: msgOneWay, id: id, key: "k", op: "o", body: []byte("payload")}
				if err := w.send(m); err != nil {
					t.Errorf("send %d: %v", id, err)
					return
				}
			}
		}(s)
	}
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
		t.Logf("no coalescing observed (frames=%d flushes=%d)", f, fl)
	}
}
