package orb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// writeMessage frames and writes m in one call: the pre-batching reference
// path the batched writer's differential test compares against.
func writeMessage(w io.Writer, m message) error {
	buf, err := appendFrame(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// newPair returns a listening server ORB and a client ORB, cleaned up with
// the test.
func newPair(t *testing.T) (server *ORB, addr string, client *ORB) {
	t.Helper()
	server = New("server")
	a, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client = New("client")
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})
	return server, a.String(), client
}

func TestInvokeEcho(t *testing.T) {
	server, addr, client := newPair(t)
	server.RegisterServant("echo", func(op string, arg []byte) ([]byte, error) {
		return append([]byte(op+":"), arg...), nil
	})
	got, err := client.Invoke(context.Background(), addr, "echo", "say", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "say:hello" {
		t.Errorf("Invoke = %q, want %q", got, "say:hello")
	}
}

func TestInvokeRemoteException(t *testing.T) {
	server, addr, client := newPair(t)
	server.RegisterServant("bad", func(op string, arg []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	_, err := client.Invoke(context.Background(), addr, "bad", "op", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want RemoteError", err)
	}
	if re.Message != "boom" {
		t.Errorf("RemoteError.Message = %q, want boom", re.Message)
	}
}

func TestInvokeUnknownServant(t *testing.T) {
	_, addr, client := newPair(t)
	_, err := client.Invoke(context.Background(), addr, "ghost", "op", nil)
	if err == nil || !strings.Contains(err.Error(), "no servant") {
		t.Errorf("error = %v, want no-servant exception", err)
	}
}

func TestOneWayDelivery(t *testing.T) {
	server, addr, client := newPair(t)
	var calls atomic.Int64
	done := make(chan struct{}, 1)
	server.RegisterServant("sink", func(op string, arg []byte) ([]byte, error) {
		calls.Add(1)
		select {
		case done <- struct{}{}:
		default:
		}
		return nil, nil
	})
	if err := client.InvokeOneWay(addr, "sink", "push", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("one-way request never dispatched")
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1", calls.Load())
	}
}

// TestOneWayFrameAllocs holds a one-way frame on a warm loopback connection,
// sender and receiver together, to one allocation: the received body. Under
// the race detector framing also pays an unfused buffer grow and the pool
// drops frames at random, so it reads 2-3 and is held to 4.
func TestOneWayFrameAllocs(t *testing.T) {
	server, addr, client := newPair(t)
	got := make(chan struct{}, 1)
	server.RegisterServant("sink", func(op string, arg []byte) ([]byte, error) {
		got <- struct{}{}
		return nil, nil
	})
	payload := []byte("0123456789abcdef")
	frame := func() {
		if err := client.InvokeOneWay(addr, "sink", "push", payload); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	for i := 0; i < 100; i++ {
		frame()
	}
	want := 1.0
	if info, ok := debug.ReadBuildInfo(); ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		want = 4
	}
	if allocs := testing.AllocsPerRun(1000, frame); allocs > want {
		t.Errorf("a one-way frame allocates %v times, want at most %v", allocs, want)
	}
}

func TestConcurrentInvokes(t *testing.T) {
	server, addr, client := newPair(t)
	server.RegisterServant("id", func(op string, arg []byte) ([]byte, error) {
		return arg, nil
	})
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("payload-%d", i)
			got, err := client.Invoke(context.Background(), addr, "id", "op", []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(got) != want {
				errs <- fmt.Errorf("got %q, want %q (reply misrouted)", got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestInvokeTimeout(t *testing.T) {
	server, addr, client := newPair(t)
	block := make(chan struct{})
	server.RegisterServant("slow", func(op string, arg []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	defer close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := client.Invoke(ctx, addr, "slow", "op", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want deadline exceeded", err)
	}
}

func TestInvokeAfterServerRestartFails(t *testing.T) {
	server, addr, client := newPair(t)
	server.RegisterServant("echo", func(op string, arg []byte) ([]byte, error) { return arg, nil })
	if _, err := client.Invoke(context.Background(), addr, "echo", "op", []byte("a")); err != nil {
		t.Fatal(err)
	}
	server.Shutdown()
	// The pooled connection is dead; the invoke must fail (either on send or
	// on closed-reply), not hang.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := client.Invoke(ctx, addr, "echo", "op", []byte("b")); err == nil {
		t.Error("invoke against shut-down server succeeded")
	}
}

func TestDialFailure(t *testing.T) {
	client := New("client")
	defer client.Shutdown()
	_, err := client.Invoke(context.Background(), "127.0.0.1:1", "x", "y", nil)
	if err == nil {
		t.Error("invoke to dead address succeeded")
	}
}

func TestListenTwiceFails(t *testing.T) {
	server, _, _ := newPair(t)
	if _, err := server.Listen("127.0.0.1:0"); err == nil {
		t.Error("second Listen succeeded")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	o := New("o")
	if _, err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	o.Shutdown()
	o.Shutdown() // must not panic or deadlock
	if _, err := o.Listen("127.0.0.1:0"); err == nil {
		t.Error("Listen after Shutdown succeeded")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	tests := []message{
		{kind: msgRequest, id: 7, key: "obj", op: "do", body: []byte("payload")},
		{kind: msgOneWay, id: 9, key: "k", op: "o", body: nil},
		{kind: msgReply, id: 7, status: statusOK, body: []byte("result")},
		{kind: msgReply, id: 8, status: statusException, body: []byte("err")},
		{kind: msgRequest, id: 1, key: "", op: "", body: []byte{}},
	}
	for _, m := range tests {
		var buf bytes.Buffer
		if err := writeMessage(&buf, m); err != nil {
			t.Fatalf("write %+v: %v", m, err)
		}
		got, err := newFrameReader(&buf).readMessage()
		if err != nil {
			t.Fatalf("read %+v: %v", m, err)
		}
		if got.kind != m.kind || got.id != m.id || got.key != m.key ||
			got.op != m.op || got.status != m.status || string(got.body) != string(m.body) {
			t.Errorf("round trip = %+v, want %+v", got, m)
		}
	}
}

func TestMessageCorruption(t *testing.T) {
	// Oversized length prefix.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := newFrameReader(&buf).readMessage(); err == nil {
		t.Error("oversized frame accepted")
	}
	// Unknown kind.
	var b2 bytes.Buffer
	if err := writeMessage(&b2, message{kind: 0x7F}); err == nil {
		t.Error("unknown kind written")
	}
	// Truncated body.
	var b3 bytes.Buffer
	if err := writeMessage(&b3, message{kind: msgRequest, id: 1, key: "k", op: "o", body: []byte("xyz")}); err != nil {
		t.Fatal(err)
	}
	raw := b3.Bytes()
	half := bytes.NewReader(raw[:len(raw)-2])
	if _, err := newFrameReader(half).readMessage(); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestRemoteErrorFormat(t *testing.T) {
	err := &RemoteError{Message: "x"}
	if got := err.Error(); got != "orb: remote exception: x" {
		t.Errorf("Error() = %q", got)
	}
}
