package eventchan

import (
	"testing"
	"time"
)

// TestPushToAddressesOneProcessor pins the forwarding rule of an addressed
// push: the sink known to be the destination gets the event, a sink known to
// be another processor does not, a sink whose processor is unknown still
// does (the degraded broadcast), and local subscribers always do.
func TestPushToAddressesOneProcessor(t *testing.T) {
	producer, _ := newNode(t, "producer")
	got := make(chan string, 16)
	consumer := func(name string) string {
		ch, addr := newNode(t, name)
		ch.Subscribe("E", func(Event) { got <- name })
		return addr
	}
	p0, p1, unknown := consumer("p0"), consumer("p1"), consumer("unknown")
	producer.Subscribe("E", func(Event) { got <- "local" })
	producer.AddProcessorSink("E", p0, 0)
	producer.AddProcessorSink("E", p1, 1)
	producer.AddRemoteSink("E", unknown)
	// What is known about an address survives a later add that does not say.
	producer.AddRemoteSink("E", p0)

	// collect drains deliveries until want have arrived, then checks nothing
	// else follows.
	collect := func(want int) map[string]int {
		t.Helper()
		seen := make(map[string]int)
		for i := 0; i < want; i++ {
			select {
			case name := <-got:
				seen[name]++
			case <-time.After(2 * time.Second):
				t.Fatalf("got %v, want %d deliveries", seen, want)
			}
		}
		select {
		case name := <-got:
			t.Fatalf("extra delivery to %s after %v", name, seen)
		case <-time.After(100 * time.Millisecond):
		}
		return seen
	}

	if err := producer.PushTo(1, Event{Type: "E"}); err != nil {
		t.Fatal(err)
	}
	if seen := collect(3); seen["local"] != 1 || seen["p1"] != 1 || seen["unknown"] != 1 {
		t.Errorf("PushTo(1) delivered %v, want local, p1 and unknown once each", seen)
	}

	if err := producer.Push(Event{Type: "E"}); err != nil {
		t.Fatal(err)
	}
	if seen := collect(4); seen["p0"] != 1 || seen["p1"] != 1 || seen["unknown"] != 1 || seen["local"] != 1 {
		t.Errorf("Push delivered %v, want every consumer once", seen)
	}

	// A destination whose sink was pruned forwards nowhere it is known not
	// to lead, and that is not an error.
	producer.RemoveRemoteSink(p1)
	producer.RemoveRemoteSink(unknown)
	_, before := producer.Stats()
	if err := producer.PushTo(1, Event{Type: "E"}); err != nil {
		t.Fatalf("PushTo a removed destination: %v", err)
	}
	if seen := collect(1); seen["local"] != 1 {
		t.Errorf("PushTo a removed destination delivered %v, want local only", seen)
	}
	if _, after := producer.Stats(); after != before {
		t.Errorf("PushTo a removed destination forwarded %d event(s)", after-before)
	}
	// A processor no sink was ever wired for behaves the same.
	if err := producer.PushTo(7, Event{Type: "E"}); err != nil {
		t.Fatalf("PushTo a never-wired destination: %v", err)
	}
	if seen := collect(1); seen["local"] != 1 {
		t.Errorf("PushTo a never-wired destination delivered %v, want local only", seen)
	}
}
