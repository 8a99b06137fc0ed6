package orb

import (
	"context"
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"
)

// TestOneWayOrderPerConnection is the delivery-order contract: the one-way
// frames one sender puts on one connection reach their servant one at a time
// and in send order, because the connection's reader runs them itself.
func TestOneWayOrderPerConnection(t *testing.T) {
	const frames = 100_000
	server, addr, client := newPair(t)
	var (
		next     atomic.Uint64
		inside   atomic.Int32
		misorder atomic.Int64
		overlap  atomic.Int64
		done     = make(chan struct{})
	)
	server.RegisterServant("seq", func(op string, arg []byte) ([]byte, error) {
		if inside.Add(1) != 1 {
			overlap.Add(1)
		}
		if got := binary.BigEndian.Uint64(arg); got != next.Load() {
			misorder.Add(1)
		}
		inside.Add(-1)
		if next.Add(1) == frames {
			close(done)
		}
		return nil, nil
	})
	var body [8]byte
	for i := uint64(0); i < frames; i++ {
		binary.BigEndian.PutUint64(body[:], i)
		if err := client.InvokeOneWay(addr, "seq", "n", body[:]); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("handler saw %d of %d frames", next.Load(), frames)
	}
	if n := misorder.Load(); n != 0 {
		t.Errorf("%d of %d frames reached the handler out of send order", n, frames)
	}
	if n := overlap.Load(); n != 0 {
		t.Errorf("%d one-way calls of one connection overlapped", n)
	}
}

// TestRequestNotBlockedBehindRequest: a two-way handler that parks holds up
// neither the one-way frames nor the requests behind it on the same
// connection — requests run on their own goroutines, not on the reader.
func TestRequestNotBlockedBehindRequest(t *testing.T) {
	server, addr, client := newPair(t)
	parked := make(chan struct{})
	release := make(chan struct{})
	noted := make(chan struct{}, 1)
	server.RegisterServant("svc", func(op string, arg []byte) ([]byte, error) {
		switch op {
		case "park":
			close(parked)
			<-release
		case "note":
			noted <- struct{}{}
		}
		return arg, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	parkDone := make(chan error, 1)
	go func() {
		_, err := client.Invoke(ctx, addr, "svc", "park", nil)
		parkDone <- err
	}()
	select {
	case <-parked:
	case <-ctx.Done():
		t.Fatal("park request never reached the servant")
	}

	if err := client.InvokeOneWay(addr, "svc", "note", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-noted:
	case <-ctx.Done():
		t.Fatal("one-way frame stalled behind a parked request")
	}
	if got, err := client.Invoke(ctx, addr, "svc", "echo", []byte("x")); err != nil || string(got) != "x" {
		t.Fatalf("request behind a parked request: %q, %v", got, err)
	}

	close(release)
	if err := <-parkDone; err != nil {
		t.Errorf("parked request: %v", err)
	}
}

// TestUnservedFrameKindCounted: a reply sent to a server connection is
// dropped, and shows in TransportStats instead of vanishing.
func TestUnservedFrameKindCounted(t *testing.T) {
	server, addr, client := newPair(t)
	server.RegisterServant("echo", func(op string, arg []byte) ([]byte, error) { return arg, nil })
	cc, err := client.client(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.send(message{kind: msgReply, id: 1, status: statusOK}); err != nil {
		t.Fatal(err)
	}
	// The request behind it on the same connection is served once the reader
	// has passed the stray reply.
	if _, err := client.Invoke(context.Background(), addr, "echo", "op", nil); err != nil {
		t.Fatal(err)
	}
	if got := server.TransportStats().FramesDropped; got != 1 {
		t.Errorf("FramesDropped = %d, want 1", got)
	}
}
