package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/orb"
)

const (
	orbInvokeCalls = 5000
	orbOneWayMsgs  = 100000
)

// probeORB measures the object request broker alone over a loopback socket:
// a two-way echo of a 64-byte payload, one call in flight, and a one-way
// stream from one sender that the receiver counts to completion. The
// round-trip is the floor under an event-channel hop; the one-way rate caps
// what the event plane can stream.
func probeORB(div int) (metrics, error) {
	invokeCalls, oneWayMsgs := orbInvokeCalls/div, int64(orbOneWayMsgs/div)
	server, client := orb.New("probe-orb-server"), orb.New("probe-orb-client")
	defer server.Shutdown()
	defer client.Shutdown()
	var received atomic.Int64
	server.RegisterServant("probe", func(op string, arg []byte) ([]byte, error) {
		if op == "count" {
			received.Add(1)
			return nil, nil
		}
		return arg, nil
	})
	bound, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("probe orb: %w", err)
	}
	addr := bound.String()
	payload := make([]byte, 64)
	ctx := context.Background()
	if _, err := client.Invoke(ctx, addr, "probe", "echo", payload); err != nil {
		return nil, fmt.Errorf("probe orb: %w", err)
	}

	rtt := make([]float64, 0, invokeCalls)
	invokeAllocs := allocsDuring(func() {
		for i := 0; i < invokeCalls && err == nil; i++ {
			t0 := time.Now()
			_, err = client.Invoke(ctx, addr, "probe", "echo", payload)
			rtt = append(rtt, us(time.Since(t0)))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("probe orb: invoke: %w", err)
	}

	var elapsed time.Duration
	oneWayAllocs := allocsDuring(func() {
		t0 := time.Now()
		for i := int64(0); i < oneWayMsgs && err == nil; i++ {
			err = client.InvokeOneWay(addr, "probe", "count", payload)
		}
		for deadline := t0.Add(30 * time.Second); err == nil && received.Load() < oneWayMsgs; {
			if time.Now().After(deadline) {
				err = fmt.Errorf("receiver counted %d of %d one-way messages", received.Load(), oneWayMsgs)
			}
			time.Sleep(50 * time.Microsecond)
		}
		elapsed = time.Since(t0)
	})
	if err != nil {
		return nil, fmt.Errorf("probe orb: one-way: %w", err)
	}
	s := summarize(rtt)
	return metrics{
		"orb.invoke_rtt_p50_us":     s.P50,
		"orb.invoke_rtt_p99_us":     s.P99,
		"orb.invoke_allocs":         float64(invokeAllocs) / float64(invokeCalls),
		"orb.oneway_msgs_s":         float64(oneWayMsgs) / elapsed.Seconds(),
		"orb.oneway_allocs_per_msg": float64(oneWayAllocs) / float64(oneWayMsgs),
	}, nil
}
