package des

import (
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", e.Now())
	}
	if e.Fired() != 3 {
		t.Errorf("Fired() = %d, want 3", e.Fired())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(50*time.Millisecond, func() { got = append(got, 2) })
	e.RunUntil(20 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("RunUntil executed %d events, want 1", len(got))
	}
	if e.Now() != 20*time.Millisecond {
		t.Errorf("Now() = %v, want horizon 20ms", e.Now())
	}
	if e.PendingCount() != 1 {
		t.Errorf("PendingCount() = %d, want 1", e.PendingCount())
	}
	e.RunUntil(time.Second)
	if len(got) != 2 {
		t.Fatalf("second RunUntil executed %d total, want 2", len(got))
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(time.Millisecond, func() {
		got = append(got, "a")
		e.At(e.Now()+time.Millisecond, func() { got = append(got, "b") })
		e.At(e.Now(), func() { got = append(got, "a2") })
	})
	e.Run()
	want := []string{"a", "a2", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(time.Millisecond, func() {})
}

func TestEngineNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.At(time.Second, nil)
}

// TestEngineWorkCounts counts each kind of engine work over a small run:
// two timers, one link send, two starts and a preemption, which takes the
// running processor out of the busy heap without a completion, and the idle
// detector's timer when the processor drains.
func TestEngineWorkCounts(t *testing.T) {
	e := NewEngine()
	p := NewProcessor(e, 0)
	p.SetIdleCallback(func() {})
	l := NewLink(e, time.Millisecond)
	h := &recordingHandler{}
	e.At(time.Millisecond, func() {})
	e.At(2*time.Millisecond, func() {})
	l.SendEvent(h, Event{})
	p.SubmitEvent(2, 3*time.Millisecond, h, Event{})
	e.At(time.Millisecond, func() { p.SubmitEvent(1, time.Millisecond, h, Event{}) })
	e.Run()
	want := Work{Queued: 4, Sent: 1, BusyPushes: 3, BusyRemoves: 3}
	if got := e.Work(); got != want {
		t.Errorf("Work() = %+v, want %+v", got, want)
	}
}
