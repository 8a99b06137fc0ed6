package orb

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
)

// TestLargePayloadRoundTrip exercises framing near megabyte scale (workload
// JSON attributes in deployment plans can be large).
func TestLargePayloadRoundTrip(t *testing.T) {
	server, addr, client := newPair(t)
	server.RegisterServant("echo", func(op string, arg []byte) ([]byte, error) { return arg, nil })
	payload := bytes.Repeat([]byte("x"), 1<<20)
	got, err := client.Invoke(context.Background(), addr, "echo", "op", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload corrupted: got %d bytes", len(got))
	}
}

// TestOversizedFrameRejected verifies the frame guard refuses messages over
// the limit instead of allocating unbounded memory.
func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	huge := message{kind: msgRequest, id: 1, key: "k", op: "o", body: make([]byte, maxFrame)}
	if err := writeMessage(&buf, huge); err == nil {
		t.Error("oversized frame written")
	}
}

// TestShutdownDuringInFlightInvokes closes the server while invocations are
// blocked in a servant: every caller must get an error promptly rather than
// hang.
func TestShutdownDuringInFlightInvokes(t *testing.T) {
	server := New("server")
	listenAddr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := listenAddr.String()
	client := New("client")
	defer client.Shutdown()

	started := make(chan struct{}, 8)
	release := make(chan struct{})
	server.RegisterServant("slow", func(op string, arg []byte) ([]byte, error) {
		started <- struct{}{}
		<-release
		return nil, nil
	})

	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := client.Invoke(ctx, addr, "slow", "op", nil)
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("invocations never reached the servant")
		}
	}
	// Unblock the handlers, then shut down; callers racing the shutdown
	// must resolve either way without hanging.
	close(release)
	server.Shutdown()
	for i := 0; i < n; i++ {
		select {
		case <-errs:
			// Success or connection-closed are both acceptable outcomes.
		case <-time.After(10 * time.Second):
			t.Fatal("invocation wedged across shutdown")
		}
	}
}

// TestConcurrentOneWaysAndInvokes mixes one-way pushes and two-way calls on
// one shared connection under the race detector.
func TestConcurrentOneWaysAndInvokes(t *testing.T) {
	server, addr, client := newPair(t)
	server.RegisterServant("svc", func(op string, arg []byte) ([]byte, error) { return arg, nil })
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for i := 0; i < 32; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := client.Invoke(context.Background(), addr, "svc", "two-way", []byte("a")); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			if err := client.InvokeOneWay(addr, "svc", "one-way", []byte("b")); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReconnectAfterServerRestart verifies a fresh server on the same
// address is reachable after the pooled connection died.
func TestReconnectAfterServerRestart(t *testing.T) {
	server := New("server-1")
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server.RegisterServant("echo", func(op string, arg []byte) ([]byte, error) { return arg, nil })
	client := New("client")
	defer client.Shutdown()
	if _, err := client.Invoke(context.Background(), addr.String(), "echo", "op", []byte("1")); err != nil {
		t.Fatal(err)
	}
	server.Shutdown()

	// Restart on the same port.
	server2 := New("server-2")
	if _, err := server2.Listen(addr.String()); err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	defer server2.Shutdown()
	server2.RegisterServant("echo", func(op string, arg []byte) ([]byte, error) { return arg, nil })

	// The first call may fail while the pool notices the dead connection;
	// within a few attempts the client must reconnect.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := client.Invoke(context.Background(), addr.String(), "echo", "op", []byte("2")); err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("client never reconnected to the restarted server")
}

// TestShutdownDuringOneWaySends shuts an ORB down while goroutines it does
// not own are writing through its connections: senders flush on their own
// goroutines and register each flush with the ORB's wait group, so Shutdown
// must neither hang on a flush in progress nor race a late registration.
// Every send ends with nil or an error, promptly.
func TestShutdownDuringOneWaySends(t *testing.T) {
	for round := 0; round < 20; round++ {
		server, addr, client := newPair(t)
		server.RegisterServant("sink", func(op string, arg []byte) ([]byte, error) { return nil, nil })
		if err := client.InvokeOneWay(addr, "sink", "op", nil); err != nil {
			t.Fatal(err)
		}
		var senders sync.WaitGroup
		for s := 0; s < 8; s++ {
			senders.Add(1)
			go func() {
				defer senders.Done()
				for i := 0; i < 200; i++ {
					if client.InvokeOneWay(addr, "sink", "op", []byte("x")) != nil {
						return
					}
				}
			}()
		}
		client.Shutdown()
		done := make(chan struct{})
		go func() { senders.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("senders still blocked after Shutdown returned")
		}
	}
}
