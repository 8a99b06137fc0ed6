package eventchan

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/orb"
)

// TestEncodeEventFieldTooLong is the regression test for the silent-
// truncation bug: Type or Source longer than 0xFFFF bytes used to have its
// length prefix wrap modulo 65536 and decode as garbage; now encoding (and
// Push, which validates up front) must fail.
func TestEncodeEventFieldTooLong(t *testing.T) {
	long := strings.Repeat("x", 0x10000)
	for _, ev := range []Event{
		{Type: long, Source: "s"},
		{Type: "t", Source: long},
	} {
		if _, err := encodeEvent(ev); !errors.Is(err, errFieldTooLong) {
			t.Errorf("encodeEvent(%d-byte field) error = %v, want errFieldTooLong", 0x10000, err)
		}
	}
	// Exactly 0xFFFF bytes is still representable.
	max := strings.Repeat("y", 0xFFFF)
	enc, err := encodeEvent(Event{Type: max, Source: max, Payload: []byte("p")})
	if err != nil {
		t.Fatalf("encodeEvent(0xFFFF-byte fields): %v", err)
	}
	got, err := decodeEvent(new(orb.Interner), enc)
	if err != nil || got.Type != max || got.Source != max {
		t.Fatalf("round trip at the limit failed: %v", err)
	}
	// Push rejects before anything is queued or delivered.
	ch, _ := newNode(t, "n")
	ch.Subscribe("t", func(Event) { t.Error("oversized event delivered") })
	if err := ch.Push(Event{Type: "t", Source: long}); !errors.Is(err, errFieldTooLong) {
		t.Errorf("Push error = %v, want errFieldTooLong", err)
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	batches := [][]Event{
		nil,
		{{Type: "A", Source: "n1", Payload: []byte("one")}},
		{
			{Type: "A", Source: "n1", Payload: []byte("one")},
			{Type: "", Source: "", Payload: nil},
			{Type: "B", Source: "n2", Payload: make([]byte, 2048)},
		},
	}
	for _, batch := range batches {
		enc, err := encodeBatch(batch)
		if err != nil {
			t.Fatalf("encodeBatch(%d events): %v", len(batch), err)
		}
		got, err := decodeBatch(new(orb.Interner), enc)
		if err != nil {
			t.Fatalf("decodeBatch(%d events): %v", len(batch), err)
		}
		if len(got) != len(batch) {
			t.Fatalf("round trip = %d events, want %d", len(got), len(batch))
		}
		for i := range batch {
			if got[i].Type != batch[i].Type || got[i].Source != batch[i].Source ||
				string(got[i].Payload) != string(batch[i].Payload) {
				t.Errorf("event %d = %+v, want %+v", i, got[i], batch[i])
			}
		}
	}
	for _, corrupt := range [][]byte{
		{},
		{0, 0, 0, 5},
		{0, 0, 0, 1, 0, 0, 0, 9, 0},
		{0xFF, 0xFF, 0xFF, 0xFF},
	} {
		if _, err := decodeBatch(new(orb.Interner), corrupt); err == nil {
			t.Errorf("decodeBatch(%v) accepted corrupt input", corrupt)
		}
	}
	// Trailing garbage after the declared count is rejected.
	enc, err := encodeBatch([]Event{{Type: "A"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBatch(new(orb.Interner), append(enc, 0xAB)); err == nil {
		t.Error("decodeBatch accepted trailing bytes")
	}
}

// TestBatchedVsUnbatchedDifferential pushes the same event sequence through
// the batched gateway path (Push) and the scalar path (PushUrgent) and
// asserts the consumer observes the same events either way: batching is a
// transport optimization, not a semantic change.
func TestBatchedVsUnbatchedDifferential(t *testing.T) {
	const n = 200
	run := func(push func(*Channel, Event) error) map[string]int {
		producer, _ := newNode(t, "p")
		consumer, addr := newNode(t, "c")
		var mu sync.Mutex
		got := make(map[string]int, n)
		var count atomic.Int64
		done := make(chan struct{})
		consumer.Subscribe("E", func(ev Event) {
			mu.Lock()
			got[string(ev.Payload)]++
			mu.Unlock()
			if count.Add(1) == n {
				close(done)
			}
		})
		producer.AddRemoteSink("E", addr)
		for i := 0; i < n; i++ {
			if err := push(producer, Event{Type: "E", Payload: []byte(fmt.Sprintf("ev-%d", i))}); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/%d events crossed the gateway", count.Load(), n)
		}
		mu.Lock()
		defer mu.Unlock()
		return got
	}

	batched := run((*Channel).Push)
	unbatched := run((*Channel).PushUrgent)
	if len(batched) != n || len(unbatched) != n {
		t.Fatalf("distinct events: batched %d, unbatched %d, want %d", len(batched), len(unbatched), n)
	}
	for k, v := range unbatched {
		if batched[k] != v {
			t.Errorf("event %q: batched delivered %d, unbatched %d", k, batched[k], v)
		}
	}
}

// TestPushUrgentOvertakesFullSink pins why PushUrgent exists: with a sink's
// pending queue full under DropNewest, Push is shed with ErrBackpressure
// while PushUrgent still reaches the peer.
func TestPushUrgentOvertakesFullSink(t *testing.T) {
	producer, _ := newNode(t, "p-urgent")
	consumer, addr := newNode(t, "c-urgent")
	producer.sinkDepth = 2
	got := make(chan string, 1)
	consumer.Subscribe("E", func(ev Event) { got <- string(ev.Payload) })
	producer.AddRemoteSink("E", addr)

	// Fill the pending queue behind a flush that is marked in flight, so
	// nothing drains it for the duration of the test.
	producer.sinksMu.Lock()
	snk := producer.sinks[addr]
	producer.sinksMu.Unlock()
	snk.mu.Lock()
	snk.flushing = true
	snk.mu.Unlock()
	for i := 0; i < producer.sinkDepth; i++ {
		if err := producer.Push(Event{Type: "E", Payload: []byte("queued")}); err != nil {
			t.Fatalf("push %d into a non-full queue: %v", i, err)
		}
	}

	if err := producer.Push(Event{Type: "E", Payload: []byte("shed")}); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("Push on a full sink = %v, want ErrBackpressure", err)
	}
	if err := producer.PushUrgent(Event{Type: "E", Payload: []byte("urgent")}); err != nil {
		t.Fatalf("PushUrgent on a full sink: %v", err)
	}
	select {
	case p := <-got:
		if p != "urgent" {
			t.Fatalf("consumer saw %q first, want the urgent event", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("urgent event never crossed the gateway")
	}
	if ps := producer.PlaneStats(); ps.ForwardDropped != 1 {
		t.Errorf("ForwardDropped = %d, want 1", ps.ForwardDropped)
	}
}

// TestSinkBlockPolicyDeliversAll verifies the gateway's Block overflow
// policy: a tiny pending queue throttles concurrent pushers instead of
// shedding, and every event still crosses the federation exactly once.
func TestSinkBlockPolicyDeliversAll(t *testing.T) {
	o := orb.New("p-block")
	t.Cleanup(o.Shutdown)
	producer := New("p-block", o, WithSinkPolicy(Block))
	producer.sinkDepth, producer.sinkBatch = 2, 1
	consumer, addr := newNode(t, "c-block")

	const pubs, per = 4, 200
	var got atomic.Int64
	done := make(chan struct{})
	consumer.Subscribe("E", func(Event) {
		if got.Add(1) == pubs*per {
			close(done)
		}
	})
	producer.AddRemoteSink("E", addr)

	var wg sync.WaitGroup
	var errs atomic.Int64
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := producer.Push(Event{Type: "E", Payload: []byte("x")}); err != nil {
					errs.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errs.Load() != 0 {
		t.Fatalf("%d pushes failed under Block policy", errs.Load())
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("delivered %d/%d events", got.Load(), pubs*per)
	}
	if ps := producer.PlaneStats(); ps.ForwardDropped != 0 {
		t.Errorf("Block policy dropped %d events", ps.ForwardDropped)
	}
	// Close wakes any pusher blocked on a full sink (exercised here only
	// for the no-waiter case; the churn test covers concurrent closes).
	producer.Close()
}

// TestSubscriptionCancelStopsDelivery verifies Cancel removes the consumer
// and that other subscribers of the same type are unaffected.
func TestSubscriptionCancelStopsDelivery(t *testing.T) {
	ch, _ := newNode(t, "n")
	var a, b atomic.Int64
	subA := ch.Subscribe("E", func(Event) { a.Add(1) })
	ch.Subscribe("E", func(Event) { b.Add(1) })
	if err := ch.Push(Event{Type: "E"}); err != nil {
		t.Fatal(err)
	}
	subA.Cancel()
	subA.Cancel() // idempotent
	if err := ch.Push(Event{Type: "E"}); err != nil {
		t.Fatal(err)
	}
	if a.Load() != 1 {
		t.Errorf("canceled subscriber saw %d events, want 1", a.Load())
	}
	if b.Load() != 2 {
		t.Errorf("remaining subscriber saw %d events, want 2", b.Load())
	}
}

// TestEventPlaneChurnStress publishes from many goroutines across several
// event types while subscribers churn (subscribe/unsubscribe mid-stream) on
// the sharded table and a federated sink receives batched pushes — the
// -race workout for the whole plane.
func TestEventPlaneChurnStress(t *testing.T) {
	producer, _ := newNode(t, "p")
	consumer, addr := newNode(t, "c")
	var remote atomic.Int64
	consumer.Subscribe("T0", func(Event) { remote.Add(1) })
	producer.AddRemoteSink("T0", addr)

	types := []string{"T0", "T1", "T2", "T3", "T4"}
	const (
		publishers = 8
		perPub     = 500
		churners   = 4
	)

	var local atomic.Int64
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	for i := 0; i < churners; i++ {
		churnWG.Add(1)
		go func(i int) {
			defer churnWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				typ := types[i%len(types)]
				producer.Subscribe(typ, func(Event) { local.Add(1) }).Cancel()
			}
		}(i)
	}

	var pubWG sync.WaitGroup
	var pushErrs atomic.Int64
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			for i := 0; i < perPub; i++ {
				ev := Event{Type: types[(p+i)%len(types)], Payload: []byte{byte(i)}}
				if err := producer.Push(ev); err != nil && !errors.Is(err, ErrBackpressure) {
					pushErrs.Add(1)
					return
				}
			}
		}(p)
	}
	pubWG.Wait()
	close(stop)
	churnWG.Wait()

	if pushErrs.Load() != 0 {
		t.Fatalf("%d pushes failed with non-backpressure errors", pushErrs.Load())
	}
	pushed, forwarded := producer.Stats()
	if pushed != publishers*perPub {
		t.Errorf("pushed = %d, want %d", pushed, publishers*perPub)
	}
	// Every T0 push was either forwarded or counted as dropped backpressure.
	ps := producer.PlaneStats()
	wantT0 := int64(0)
	for p := 0; p < publishers; p++ {
		for i := 0; i < perPub; i++ {
			if (p+i)%len(types) == 0 {
				wantT0++
			}
		}
	}
	if forwarded+ps.ForwardDropped != wantT0 {
		t.Errorf("forwarded %d + dropped %d != %d T0 pushes", forwarded, ps.ForwardDropped, wantT0)
	}
	if ps.ForwardBatches > forwarded {
		t.Errorf("batches %d > forwarded events %d", ps.ForwardBatches, forwarded)
	}
	// The remote side eventually observes every successfully forwarded event.
	deadline := time.Now().Add(10 * time.Second)
	for remote.Load() < forwarded-ps.ForwardErrors && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ps.ForwardErrors == 0 && remote.Load() != forwarded {
		t.Errorf("remote delivered %d, want %d", remote.Load(), forwarded)
	}
	producer.Close()
	consumer.Close()
}
