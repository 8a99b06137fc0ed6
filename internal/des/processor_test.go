package des

import (
	"testing"
	"time"
)

func TestProcessorRunsInPriorityOrder(t *testing.T) {
	e := NewEngine()
	p := NewProcessor(e, 0)
	var got []string
	submit := func(label string, prio int, exec time.Duration) {
		p.SubmitEvent(prio, exec, completionRecorder{rec: func() { got = append(got, label) }}, Event{})
	}
	// All submitted at t=0; "low" starts first but completes last because
	// higher-priority arrivals run before the ready queue is consulted.
	e.At(0, func() {
		submit("low", 5, 10*time.Millisecond)
		submit("high", 1, 10*time.Millisecond)
		submit("mid", 3, 10*time.Millisecond)
	})
	e.Run()
	want := []string{"high", "mid", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion order %v, want %v", got, want)
		}
	}
}

func TestProcessorPreemption(t *testing.T) {
	e := NewEngine()
	p := NewProcessor(e, 0)
	var events []string
	var lowDone, highDone time.Duration
	e.At(0, func() {
		p.SubmitEvent(10, 100*time.Millisecond, completionRecorder{rec: func() {
			events = append(events, "low")
			lowDone = e.Now()
		}}, Event{})
	})
	e.At(30*time.Millisecond, func() {
		p.SubmitEvent(1, 20*time.Millisecond, completionRecorder{rec: func() {
			events = append(events, "high")
			highDone = e.Now()
		}}, Event{})
	})
	e.Run()
	if len(events) != 2 || events[0] != "high" || events[1] != "low" {
		t.Fatalf("completion order %v, want [high low]", events)
	}
	// high: 30ms arrival + 20ms exec = 50ms. low: 100ms exec + 20ms
	// preemption = 120ms.
	if highDone != 50*time.Millisecond {
		t.Errorf("high completed at %v, want 50ms", highDone)
	}
	if lowDone != 120*time.Millisecond {
		t.Errorf("low completed at %v, want 120ms", lowDone)
	}
	if p.BusyTime != 120*time.Millisecond {
		t.Errorf("BusyTime = %v, want 120ms", p.BusyTime)
	}
}

func TestProcessorEqualPriorityFIFO(t *testing.T) {
	e := NewEngine()
	p := NewProcessor(e, 0)
	var got []string
	e.At(0, func() {
		for _, label := range []string{"a", "b", "c"} {
			label := label
			p.SubmitEvent(2, time.Millisecond, completionRecorder{rec: func() { got = append(got, label) }}, Event{})
		}
	})
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("equal-priority order %v, want %v", got, want)
		}
	}
}

func TestProcessorNoPreemptionByEqualPriority(t *testing.T) {
	e := NewEngine()
	p := NewProcessor(e, 0)
	var first string
	e.At(0, func() {
		p.SubmitEvent(2, 50*time.Millisecond, completionRecorder{rec: func() {
			if first == "" {
				first = "running"
			}
		}}, Event{})
	})
	e.At(10*time.Millisecond, func() {
		p.SubmitEvent(2, time.Millisecond, completionRecorder{rec: func() {
			if first == "" {
				first = "later"
			}
		}}, Event{})
	})
	e.Run()
	if first != "running" {
		t.Errorf("equal-priority arrival preempted the running request")
	}
}

func TestProcessorIdleCallback(t *testing.T) {
	e := NewEngine()
	p := NewProcessor(e, 0)
	idles := 0
	p.SetIdleCallback(func() { idles++ })
	nop := completionRecorder{rec: func() {}}
	e.At(0, func() { p.SubmitEvent(1, 10*time.Millisecond, nop, Event{}) })
	// Back-to-back work arriving exactly at completion time: the idle
	// detector runs at the same virtual instant but after the arrival, so no
	// idle report happens in between.
	e.At(10*time.Millisecond, func() { p.SubmitEvent(1, 5*time.Millisecond, nop, Event{}) })
	e.Run()
	if idles != 1 {
		t.Errorf("idle callback fired %d times, want 1 (only after final drain)", idles)
	}
	if !p.Idle() {
		t.Error("processor should be idle after run")
	}
}

func TestProcessorIdleNotSpuriousDuringChain(t *testing.T) {
	e := NewEngine()
	p := NewProcessor(e, 0)
	idles := 0
	p.SetIdleCallback(func() { idles++ })
	// A completion that immediately submits local follow-up work from its
	// handler must not trigger an idle report.
	e.At(0, func() {
		p.SubmitEvent(1, time.Millisecond, completionRecorder{rec: func() {
			p.SubmitEvent(1, time.Millisecond, completionRecorder{rec: func() {}}, Event{})
		}}, Event{})
	})
	e.Run()
	if idles != 1 {
		t.Errorf("idle callback fired %d times, want 1", idles)
	}
}

func TestProcessorSubmitValidation(t *testing.T) {
	e := NewEngine()
	p := NewProcessor(e, 0)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	h := completionRecorder{rec: func() {}}
	mustPanic("zero execution time", func() { p.SubmitEvent(1, 0, h, Event{}) })
	mustPanic("negative execution time", func() { p.SubmitEvent(1, -time.Millisecond, h, Event{}) })
	mustPanic("nil handler", func() { p.SubmitEvent(1, time.Millisecond, nil, Event{}) })
	if !p.Idle() {
		t.Error("a refused submission left work on the processor")
	}
}

func TestLinkDelay(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 322*time.Microsecond)
	var at []time.Duration
	h := clockRecorder{e: e, at: &at}
	e.At(time.Millisecond, func() {
		l.SendEvent(h, Event{})
		l.SendEvent(h, Event{})
		if got := e.PendingCount(); got != 2 {
			t.Errorf("PendingCount = %d with two sends in flight, want 2", got)
		}
	})
	e.Run()
	want := time.Millisecond + 322*time.Microsecond
	if len(at) != 2 || at[0] != want || at[1] != want {
		t.Errorf("messages delivered at %v, want two at %v", at, want)
	}
	if e.Fired() != 3 || e.PendingCount() != 0 {
		t.Errorf("Fired = %d, PendingCount = %d; want 3 and 0", e.Fired(), e.PendingCount())
	}
	if l.Delay() != 322*time.Microsecond {
		t.Errorf("Delay() = %v", l.Delay())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewLink(e, -time.Second)
}

// clockRecorder appends the engine's clock to at for every event it is
// handed.
type clockRecorder struct {
	e  *Engine
	at *[]time.Duration
}

func (c clockRecorder) HandleEvent(Event) { *c.at = append(*c.at, c.e.Now()) }
