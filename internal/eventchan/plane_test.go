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

// TestSinkBlockPolicyDeliversAll verifies that concurrent pushers to one peer
// lose nothing: every event of 4 publishers crosses the federation exactly
// once. A full connection blocks its pushers in the ORB writer
// (orb.TestWriterBlocksAtDepthAndResumes); nothing on the way sheds.
func TestSinkBlockPolicyDeliversAll(t *testing.T) {
	producer, _ := newNode(t, "p-block")
	consumer, addr := newNode(t, "c-block")

	const pubs, per = 4, 200
	var (
		mu   sync.Mutex
		seen = make(map[string]int, pubs*per)
		got  atomic.Int64
	)
	done := make(chan struct{})
	consumer.Subscribe("E", func(ev Event) {
		mu.Lock()
		seen[string(ev.Payload)]++
		mu.Unlock()
		if got.Add(1) == pubs*per {
			close(done)
		}
	})
	producer.AddRemoteSink("E", addr)

	var wg sync.WaitGroup
	var errs atomic.Int64
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := producer.Push(Event{Type: "E", Payload: fmt.Appendf(nil, "%d/%d", p, i)}); err != nil {
					errs.Add(1)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if errs.Load() != 0 {
		t.Fatalf("%d pushes failed", errs.Load())
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("delivered %d/%d events", got.Load(), pubs*per)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != pubs*per {
		t.Errorf("%d distinct events delivered, want %d", len(seen), pubs*per)
	}
	for ev, n := range seen {
		if n != 1 {
			t.Errorf("event %s delivered %d times", ev, n)
		}
	}
	if ps := producer.PlaneStats(); ps.Forwarded != pubs*per || ps.ForwardErrors != 0 {
		t.Errorf("plane stats %+v, want %d forwarded and no errors", ps, pubs*per)
	}
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
// the sharded table and a federated sink receives concurrent pushes — the
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
				if err := producer.Push(ev); err != nil {
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
		t.Fatalf("%d pushes failed", pushErrs.Load())
	}
	pushed, forwarded := producer.Stats()
	if pushed != publishers*perPub {
		t.Errorf("pushed = %d, want %d", pushed, publishers*perPub)
	}
	// Every T0 push was forwarded.
	ps := producer.PlaneStats()
	wantT0 := int64(0)
	for p := 0; p < publishers; p++ {
		for i := 0; i < perPub; i++ {
			if (p+i)%len(types) == 0 {
				wantT0++
			}
		}
	}
	if forwarded != wantT0 {
		t.Errorf("forwarded %d != %d T0 pushes", forwarded, wantT0)
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
