package live

import (
	"sync/atomic"
	"testing"

	"repro/internal/ccm"
	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

// countEvents counts the events of type typ pushed on ch.
func countEvents(ch *eventchan.Channel, typ string) *atomic.Int64 {
	var n atomic.Int64
	ch.Subscribe(typ, func(eventchan.Event) { n.Add(1) })
	return &n
}

// TestTEHoldsOneRequestPerTask pins the hold rule on the live effector: the
// jobs of a per-task periodic task that arrive before its first decision
// put one Task Arrive on the channel, and all of them release when its
// Accept lands.
func TestTEHoldsOneRequestPerTask(t *testing.T) {
	node, err := NewNode("tehold-test", 0, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	te := NewTaskEffector()
	if err := te.Configure(teAttrs("0", "T")); err != nil {
		t.Fatal(err)
	}
	if err := te.Activate(&ccm.Context{Node: "tehold-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	arrives := countEvents(node.Channel, EvTaskArrive)
	releases := countEvents(node.Channel, EvRelease)
	const n = 5
	for i := 0; i < n; i++ {
		if adm, err := te.SubmitJob("p"); err != nil || adm.Outcome != core.AdmissionPending {
			t.Fatalf("SubmitJob = %+v, %v; want a pending hold", adm, err)
		}
	}
	if got := arrives.Load(); got != 1 {
		t.Fatalf("%d submits before the first decision pushed %d Task Arrive events, want 1", n, got)
	}
	_ = node.Channel.Push(eventchan.Event{Type: EvAccept, Payload: AppendAccept(nil, &Accept{
		Task: "p", Job: 0, Ok: true, Placement: []sched.PlacedStage{{Stage: 0, Proc: 0}}, PerTaskDecision: true,
	})})
	if s := te.StatsSnapshot(); s.Released != n || releases.Load() != n {
		t.Fatalf("released %d (%d Release events), want %d", s.Released, releases.Load(), n)
	}
	if adm, err := te.SubmitJob("p"); err != nil || adm.Outcome != core.AdmissionAccepted {
		t.Fatalf("SubmitJob after the decision = %+v, %v; want the cached accept", adm, err)
	}
	if got := arrives.Load(); got != 1 {
		t.Errorf("a cached arrival pushed a Task Arrive (%d in all)", got)
	}
}

// TestTERemovedTaskInFlightIsRefused pins the removal path: a Task Arrive
// for task p buffered by a quiesced admission controller, then a
// reconfiguration that removes p from both components, then Resume. The
// controller must answer with a refusal, and the effector must skip the job
// rather than drop it.
func TestTERemovedTaskInFlightIsRefused(t *testing.T) {
	node, err := NewNode("teremove-test", 0, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx := &ccm.Context{Node: "teremove-test", ORB: node.ORB, Events: node.Channel}
	ac := NewAdmissionController()
	if err := ac.Configure(acAttrs()); err != nil {
		t.Fatal(err)
	}
	te := NewTaskEffector()
	if err := te.Configure(teAttrs("0", "J")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []ccm.Component{ac, te} {
		if err := c.Activate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var accepts []Accept
	node.Channel.Subscribe(EvAccept, func(ev eventchan.Event) {
		if a, err := DecodeAccept(ev.Payload); err == nil {
			accepts = append(accepts, a)
		}
	})

	if _, err := ac.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if adm, err := te.SubmitJob("p"); err != nil || adm.Outcome != core.AdmissionPending {
		t.Fatalf("SubmitJob = %+v, %v", adm, err)
	}
	withoutP := map[string]string{AttrEpoch: "1", AttrWorkload: `{"name": "unit", "processors": 2, "tasks": [
	  {"id": "a", "kind": "aperiodic", "deadline": "80ms", "subtasks": [{"exec": "4ms", "processor": 1}]}]}`}
	if err := ac.Reconfigure(withoutP); err != nil {
		t.Fatal(err)
	}
	if err := te.Reconfigure(withoutP); err != nil {
		t.Fatal(err)
	}
	if n, err := ac.Resume(); err != nil || n != 1 {
		t.Fatalf("Resume = %d, %v; want the buffered arrival replayed", n, err)
	}
	if len(accepts) != 1 || accepts[0].Task != "p" || accepts[0].Ok {
		t.Fatalf("accepts = %+v, want one refusal for p", accepts)
	}
	if s := te.StatsSnapshot(); s.Arrived != 1 || s.Skipped != 1 || s.Released != 0 {
		t.Errorf("effector stats = %+v, want the arrival skipped", s)
	}
	if _, err := te.SubmitJob("p"); err == nil {
		t.Error("a removed task took an arrival")
	}
}
