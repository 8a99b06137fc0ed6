package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eventchan"
	"repro/internal/orb"
)

const (
	chanHops       = 5000
	chanStreamMsgs = 100000
	chanLocalPush  = 500000
)

// chanNode is one ORB with its event channel, listening on loopback, with
// the gateway policy the live nodes use.
type chanNode struct {
	orb  *orb.ORB
	ch   *eventchan.Channel
	addr string
}

func newChanNode(name string) (*chanNode, error) {
	o := orb.New(name)
	bound, err := o.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ch := eventchan.New(name, o, eventchan.WithSinkPolicy(eventchan.Block))
	return &chanNode{orb: o, ch: ch, addr: bound.String()}, nil
}

func (n *chanNode) close() {
	n.ch.Close()
	n.orb.Shutdown()
}

// probeEventChan measures the federated event channel alone. The hop is a
// ping-pong between two channels over a loopback ORB with one event in
// flight, halved: the paper's operation 2 at fan-in 1, group commit included.
// The stream is two publishers pushing one-way events to one remote sink
// that counts them. The local push is Push to a local subscriber, no gateway.
func probeEventChan(div int) (metrics, error) {
	hopCount, streamMsgs, localPushes := chanHops/div, int64(chanStreamMsgs/div), int64(chanLocalPush/div)
	a, err := newChanNode("probe-chan-a")
	if err != nil {
		return nil, fmt.Errorf("probe eventchan: %w", err)
	}
	defer a.close()
	b, err := newChanNode("probe-chan-b")
	if err != nil {
		return nil, fmt.Errorf("probe eventchan: %w", err)
	}
	defer b.close()
	payload := make([]byte, 64)

	a.ch.AddRemoteSink("ping", b.addr)
	b.ch.AddRemoteSink("pong", a.addr)
	b.ch.Subscribe("ping", func(eventchan.Event) {
		_ = b.ch.Push(eventchan.Event{Type: "pong", Payload: payload}) // a lost pong shows as the timeout below
	})
	// One pong is ever in flight, so a buffer of one never blocks the
	// delivery goroutine.
	pong := make(chan struct{}, 1)
	a.ch.Subscribe("pong", func(eventchan.Event) { pong <- struct{}{} })
	roundTrip := func() error {
		if err := a.ch.Push(eventchan.Event{Type: "ping", Payload: payload}); err != nil {
			return err
		}
		select {
		case <-pong:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("no pong within 5s")
		}
	}
	if err := roundTrip(); err != nil {
		return nil, fmt.Errorf("probe eventchan: %w", err)
	}
	hops := make([]float64, 0, hopCount)
	hopAllocs := allocsDuring(func() {
		for i := 0; i < hopCount && err == nil; i++ {
			t0 := time.Now()
			err = roundTrip()
			hops = append(hops, us(time.Since(t0))/2)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("probe eventchan: hop: %w", err)
	}

	var received atomic.Int64
	a.ch.AddRemoteSink("stream", b.addr)
	b.ch.Subscribe("stream", func(eventchan.Event) { received.Add(1) })
	var elapsed time.Duration
	var pushErr atomic.Value
	streamAllocs := allocsDuring(func() {
		t0 := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int64(0); i < streamMsgs/2; i++ {
					if err := a.ch.Push(eventchan.Event{Type: "stream", Payload: payload}); err != nil {
						pushErr.Store(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		for deadline := t0.Add(30 * time.Second); received.Load() < streamMsgs && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
		elapsed = time.Since(t0)
	})
	if err, _ := pushErr.Load().(error); err != nil {
		return nil, fmt.Errorf("probe eventchan: stream: %w", err)
	}
	if n := received.Load(); n != streamMsgs {
		return nil, fmt.Errorf("probe eventchan: stream: sink counted %d of %d events", n, streamMsgs)
	}

	var local int64
	a.ch.Subscribe("local", func(eventchan.Event) { local++ })
	t0 := time.Now()
	for i := int64(0); i < localPushes; i++ {
		_ = a.ch.Push(eventchan.Event{Type: "local", Payload: payload}) // no sink: Push has nothing to fail on
	}
	localDur := time.Since(t0)
	if local != localPushes {
		return nil, fmt.Errorf("probe eventchan: local subscriber saw %d of %d pushes", local, localPushes)
	}

	s := summarize(hops)
	return metrics{
		"eventchan.hop_p50_us":              s.P50,
		"eventchan.hop_p99_us":              s.P99,
		"eventchan.hop_allocs":              float64(hopAllocs) / float64(hopCount),
		"eventchan.stream_events_s":         float64(streamMsgs) / elapsed.Seconds(),
		"eventchan.stream_allocs_per_event": float64(streamAllocs) / float64(streamMsgs),
		"eventchan.local_push_ns":           float64(localDur) / float64(localPushes),
	}, nil
}
