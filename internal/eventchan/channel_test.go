package eventchan

import (
	"sync"
	"testing"
	"time"

	"repro/internal/orb"
)

// newNode builds an ORB + channel pair listening on loopback.
func newNode(t *testing.T, name string) (*Channel, string) {
	t.Helper()
	o := orb.New(name)
	addr, err := o.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	return New(name, o), addr.String()
}

// Stats is the tests' shorthand for the push and forward counters.
func (c *Channel) Stats() (pushed, forwarded int64) {
	ps := c.PlaneStats()
	return ps.Pushed, ps.Forwarded
}

func TestLocalDelivery(t *testing.T) {
	ch, _ := newNode(t, "n1")
	var got []Event
	ch.Subscribe("TaskArrive", func(ev Event) { got = append(got, ev) })
	ch.Subscribe("Other", func(ev Event) { t.Error("wrong type delivered") })
	if err := ch.Push(Event{Type: "TaskArrive", Payload: []byte("t1")}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Payload) != "t1" || got[0].Source != "n1" {
		t.Errorf("delivered = %+v, want one TaskArrive from n1", got)
	}
}

func TestMultipleSubscribers(t *testing.T) {
	ch, _ := newNode(t, "n1")
	count := 0
	for i := 0; i < 3; i++ {
		ch.Subscribe("E", func(Event) { count++ })
	}
	if err := ch.Push(Event{Type: "E"}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("delivered to %d subscribers, want 3", count)
	}
}

func TestFederatedForwarding(t *testing.T) {
	producer, _ := newNode(t, "producer")
	consumer, consumerAddr := newNode(t, "consumer")

	var mu sync.Mutex
	var got []Event
	done := make(chan struct{}, 4)
	consumer.Subscribe("Alert", func(ev Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
		done <- struct{}{}
	})
	producer.AddRemoteSink("Alert", consumerAddr)
	// Duplicate sink registration is a no-op.
	producer.AddRemoteSink("Alert", consumerAddr)

	if err := producer.Push(Event{Type: "Alert", Payload: []byte("hazard")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("event never crossed the gateway")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("consumer got %d events, want 1 (duplicate sink must not double-deliver)", len(got))
	}
	if got[0].Source != "producer" || string(got[0].Payload) != "hazard" {
		t.Errorf("event = %+v", got[0])
	}
	pushed, forwarded := producer.Stats()
	if pushed != 1 || forwarded != 1 {
		t.Errorf("producer stats = (%d, %d), want (1, 1)", pushed, forwarded)
	}
}

func TestForwardingOnlySelectedTypes(t *testing.T) {
	producer, _ := newNode(t, "p")
	consumer, consumerAddr := newNode(t, "c")
	hit := make(chan string, 2)
	consumer.Subscribe("A", func(ev Event) { hit <- "A" })
	consumer.Subscribe("B", func(ev Event) { hit <- "B" })
	producer.AddRemoteSink("A", consumerAddr)

	if err := producer.Push(Event{Type: "B"}); err != nil {
		t.Fatal(err)
	}
	if err := producer.Push(Event{Type: "A"}); err != nil {
		t.Fatal(err)
	}
	select {
	case typ := <-hit:
		if typ != "A" {
			t.Errorf("first cross-gateway event = %s, want A (B must stay local)", typ)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event crossed the gateway")
	}
}

func TestPushAfterClose(t *testing.T) {
	ch, _ := newNode(t, "n")
	ch.Close()
	if err := ch.Push(Event{Type: "E"}); err == nil {
		t.Error("push on closed channel succeeded")
	}
}

func TestForwardToDeadPeerReturnsError(t *testing.T) {
	producer, _ := newNode(t, "p")
	producer.AddRemoteSink("E", "127.0.0.1:1")
	if err := producer.Push(Event{Type: "E"}); err == nil {
		t.Error("forward to dead peer succeeded")
	}
}

func TestRemoveRemoteSink(t *testing.T) {
	producer, _ := newNode(t, "p")
	consumer, consumerAddr := newNode(t, "c")
	delivered := make(chan Event, 8)
	consumer.Subscribe("E", func(ev Event) { delivered <- ev })
	producer.AddRemoteSink("E", consumerAddr)

	if err := producer.Push(Event{Type: "E", Payload: []byte("one")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-time.After(2 * time.Second):
		t.Fatal("event never crossed the gateway")
	}

	producer.RemoveRemoteSink(consumerAddr)
	if err := producer.Push(Event{Type: "E", Payload: []byte("two")}); err != nil {
		t.Fatalf("push after sink removal: %v", err)
	}
	select {
	case ev := <-delivered:
		t.Fatalf("event %q delivered through a removed sink", ev.Payload)
	case <-time.After(200 * time.Millisecond):
	}
	// Removing an unknown address is a no-op.
	producer.RemoveRemoteSink(consumerAddr)
	producer.RemoveRemoteSink("127.0.0.1:1")

	// The failover use: pruning a dead peer makes pushes stop failing.
	producer.AddRemoteSink("E", "127.0.0.1:1")
	if err := producer.Push(Event{Type: "E"}); err == nil {
		t.Fatal("forward to dead peer succeeded")
	}
	producer.RemoveRemoteSink("127.0.0.1:1")
	if err := producer.Push(Event{Type: "E"}); err != nil {
		t.Errorf("push after pruning the dead peer: %v", err)
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	tests := []Event{
		{Type: "TaskArrive", Source: "node-3", Payload: []byte("body")},
		{Type: "", Source: "", Payload: nil},
		{Type: "X", Source: "Y", Payload: make([]byte, 1024)},
	}
	for _, ev := range tests {
		enc, err := encodeEvent(ev)
		if err != nil {
			t.Fatalf("encode(%+v): %v", ev, err)
		}
		got, err := decodeEvent(new(orb.Interner), enc)
		if err != nil {
			t.Fatalf("decode(%+v): %v", ev, err)
		}
		if got.Type != ev.Type || got.Source != ev.Source || string(got.Payload) != string(ev.Payload) {
			t.Errorf("round trip = %+v, want %+v", got, ev)
		}
	}
	if _, err := decodeEvent(new(orb.Interner), []byte{0}); err == nil {
		t.Error("truncated event accepted")
	}
	if _, err := decodeEvent(new(orb.Interner), []byte{0, 5, 'a'}); err == nil {
		t.Error("short event field accepted")
	}
}
