package deploy

import (
	"context"
	"testing"
	"time"

	"repro/internal/eventchan"
	"repro/internal/orb"
)

// TestConnectCarriesSinkProcessor checks that a launcher-wired connection
// tells the source gateway which processor the sink is, and that a request
// without the field — its zero value — leaves the sink a candidate for every
// addressed event instead of binding it to processor 0.
func TestConnectCarriesSinkProcessor(t *testing.T) {
	got := make(chan string, 8)
	node := func(name string) (*eventchan.Channel, string) {
		o := orb.New(name)
		addr, err := o.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(o.Shutdown)
		ch := eventchan.New(name, o)
		ch.Subscribe("E", func(eventchan.Event) { got <- name })
		NewNodeManager(o, nil, nil, ch)
		return ch, addr.String()
	}
	src, srcAddr := node("src")
	_, p1Addr := node("p1")
	_, p2Addr := node("p2")
	_, mgrAddr := node("mgr")
	_, oldAddr := node("old")

	p := &Plan{Name: "t", Nodes: []Node{
		{Name: "src", Address: srcAddr, Processor: 0},
		{Name: "p1", Address: p1Addr, Processor: 1},
		{Name: "p2", Address: p2Addr, Processor: 2},
		{Name: "mgr", Address: mgrAddr, Processor: -1},
	}}
	l := NewLauncher(orb.New("launcher"))
	t.Cleanup(l.orb.Shutdown)
	ctx := context.Background()
	for _, sink := range []string{"p1", "p2", "mgr"} {
		if err := l.connect(ctx, p, Connection{EventType: "E", SourceNode: "src", SinkNode: sink}); err != nil {
			t.Fatal(err)
		}
	}
	// A request from a launcher that predates the field.
	body, err := gobEncode(ConnectRequest{EventType: "E", SinkAddr: oldAddr})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.invoke(ctx, srcAddr, opConnect, body); err != nil {
		t.Fatal(err)
	}

	if err := src.PushTo(2, eventchan.Event{Type: "E"}); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for i := 0; i < 4; i++ {
		select {
		case name := <-got:
			seen[name]++
		case <-time.After(2 * time.Second):
			t.Fatalf("deliveries %v, want src, p2, mgr and old", seen)
		}
	}
	select {
	case name := <-got:
		t.Fatalf("event addressed to processor 2 also reached %s (after %v)", name, seen)
	case <-time.After(100 * time.Millisecond):
	}
	if seen["src"] != 1 || seen["p2"] != 1 || seen["mgr"] != 1 || seen["old"] != 1 {
		t.Errorf("deliveries %v, want src, p2, mgr and old once each", seen)
	}
}
