package des

import (
	"math/rand"
	"testing"
	"time"
)

// traceRec is one fired event in a differential trace: the virtual time it
// fired at plus the logical identity assigned at scheduling time. Two
// engines driven by the same operation sequence must produce identical
// traces — same events, same order, same clock readings.
type traceRec struct {
	at time.Duration
	id int
}

// TestEngineDifferential drives random schedule/cancel/step/run-until
// sequences through the pooled engine and the retained reference engine and
// asserts identical (time, seq, fired) behavior, including nested scheduling
// from inside callbacks, handles cancelled long after their slots have been
// recycled, and Reserve calls (which the reference has no counterpart for)
// at random points.
func TestEngineDifferential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine()
		ref := newRefEngine()

		var gotNew, gotRef []traceRec
		var handles []Timer
		var refHandles []*refTimer
		nextID := 0

		// schedule registers the same logical event on both engines; with
		// probability 1/4 the callback schedules a follow-up event, so the
		// trace exercises nested scheduling and slot reuse inside Step.
		var schedule func(at time.Duration)
		schedule = func(at time.Duration) {
			id := nextID
			nextID++
			nested := rng.Intn(4) == 0
			var nestedDelay time.Duration
			if nested {
				nestedDelay = time.Duration(rng.Intn(20)) * time.Millisecond
			}
			handles = append(handles, eng.At(at, func() {
				gotNew = append(gotNew, traceRec{at: eng.Now(), id: id})
				if nested {
					// Nested events are recorded under a derived ID; both
					// engines derive it identically.
					nid := -id - 1
					eng.After(nestedDelay, func() {
						gotNew = append(gotNew, traceRec{at: eng.Now(), id: nid})
					})
				}
			}))
			refHandles = append(refHandles, ref.At(at, func() {
				gotRef = append(gotRef, traceRec{at: ref.Now(), id: id})
				if nested {
					nid := -id - 1
					ref.After(nestedDelay, func() {
						gotRef = append(gotRef, traceRec{at: ref.Now(), id: nid})
					})
				}
			}))
		}

		ops := 200 + rng.Intn(400)
		for op := 0; op < ops; op++ {
			// Reserve only moves storage: wherever it lands, the trace, the
			// handles and the counters below must not notice.
			if rng.Intn(16) == 0 {
				eng.Reserve(rng.Intn(64))
			}
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				schedule(eng.Now() + time.Duration(rng.Intn(500))*time.Millisecond)
			case 4:
				// Same-instant events must fire FIFO on both engines.
				at := eng.Now() + time.Duration(rng.Intn(50))*time.Millisecond
				for i := 0; i < 1+rng.Intn(4); i++ {
					schedule(at)
				}
			case 5, 6:
				if len(handles) > 0 {
					i := rng.Intn(len(handles))
					cNew := handles[i].Cancel()
					cRef := refHandles[i].Cancel()
					if cNew != cRef {
						t.Fatalf("seed %d: Cancel disagreement on handle %d: pooled %v, reference %v", seed, i, cNew, cRef)
					}
				}
			case 7:
				for i := 0; i < 1+rng.Intn(10); i++ {
					sNew := eng.Step()
					sRef := ref.Step()
					if sNew != sRef {
						t.Fatalf("seed %d: Step disagreement: pooled %v, reference %v", seed, sNew, sRef)
					}
				}
			case 8:
				h := eng.Now() + time.Duration(rng.Intn(800))*time.Millisecond
				eng.RunUntil(h)
				ref.RunUntil(h)
			case 9:
				// Pending/PendingCount parity on a random handle plus the
				// aggregate counter (O(1) pooled vs O(n) reference scan).
				if len(handles) > 0 {
					i := rng.Intn(len(handles))
					if pNew, pRef := handles[i].Pending(), refHandles[i].Pending(); pNew != pRef {
						t.Fatalf("seed %d: Pending disagreement on handle %d: pooled %v, reference %v", seed, i, pNew, pRef)
					}
				}
				if eng.PendingCount() != ref.PendingCount() {
					t.Fatalf("seed %d: PendingCount %d != reference %d", seed, eng.PendingCount(), ref.PendingCount())
				}
			}
			if eng.Now() != ref.Now() {
				t.Fatalf("seed %d: clock drift: pooled %v, reference %v", seed, eng.Now(), ref.Now())
			}
		}
		eng.Run()
		ref.Run()

		if eng.Fired() != ref.Fired() {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, eng.Fired(), ref.Fired())
		}
		if len(gotNew) != len(gotRef) {
			t.Fatalf("seed %d: trace length %d != reference %d", seed, len(gotNew), len(gotRef))
		}
		for i := range gotNew {
			if gotNew[i] != gotRef[i] {
				t.Fatalf("seed %d: trace diverges at %d: pooled %+v, reference %+v", seed, i, gotNew[i], gotRef[i])
			}
		}
		if eng.PendingCount() != 0 || ref.PendingCount() != 0 {
			t.Fatalf("seed %d: events left pending after Run", seed)
		}
	}
}

// TestProcessorDifferential drives random submit/preempt workloads (with
// idle detection armed) through the pooled processor and the reference
// processor and asserts identical completion traces, busy time, and idle
// callback counts.
func TestProcessorDifferential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		eng := NewEngine()
		ref := newRefEngine()
		proc := NewProcessor(eng, 0)
		refProc := newRefProcessor(ref, 0)

		var gotNew, gotRef []traceRec
		idlesNew, idlesRef := 0, 0
		proc.SetIdleCallback(func() { idlesNew++ })
		refProc.SetIdleCallback(func() { idlesRef++ })

		n := 20 + rng.Intn(80)
		for i := 0; i < n; i++ {
			id := i
			arrival := time.Duration(rng.Intn(2000)) * time.Millisecond
			exec := time.Duration(1+rng.Intn(80)) * time.Millisecond
			prio := 1 + rng.Intn(6)
			chain := rng.Intn(5) == 0
			var chainExec time.Duration
			if chain {
				chainExec = time.Duration(1+rng.Intn(20)) * time.Millisecond
			}
			eng.At(arrival, func() {
				proc.SubmitEvent(prio, exec, completionRecorder{
					rec: func() {
						gotNew = append(gotNew, traceRec{at: eng.Now(), id: id})
						if chain {
							// Chained local work submitted from inside the
							// completion, mirroring the sim's same-processor
							// stage hand-off.
							proc.SubmitEvent(prio, chainExec, completionRecorder{rec: func() {
								gotNew = append(gotNew, traceRec{at: eng.Now(), id: -id - 1})
							}}, Event{})
						}
					},
				}, Event{})
			})
			ref.At(arrival, func() {
				refProc.Submit(&refExecRequest{
					Priority:  prio,
					Remaining: exec,
					OnComplete: func() {
						gotRef = append(gotRef, traceRec{at: ref.Now(), id: id})
						if chain {
							refProc.Submit(&refExecRequest{
								Priority:  prio,
								Remaining: chainExec,
								OnComplete: func() {
									gotRef = append(gotRef, traceRec{at: ref.Now(), id: -id - 1})
								},
							})
						}
					},
				})
			})
		}
		eng.Run()
		ref.Run()

		if len(gotNew) != len(gotRef) {
			t.Fatalf("seed %d: completion trace length %d != reference %d", seed, len(gotNew), len(gotRef))
		}
		for i := range gotNew {
			if gotNew[i] != gotRef[i] {
				t.Fatalf("seed %d: completion trace diverges at %d: pooled %+v, reference %+v", seed, i, gotNew[i], gotRef[i])
			}
		}
		if proc.BusyTime != refProc.BusyTime {
			t.Fatalf("seed %d: busy time %v != reference %v", seed, proc.BusyTime, refProc.BusyTime)
		}
		if idlesNew != idlesRef {
			t.Fatalf("seed %d: idle callbacks %d != reference %d", seed, idlesNew, idlesRef)
		}
		if !proc.Idle() || !refProc.Idle() {
			t.Fatalf("seed %d: processor not idle after drain", seed)
		}
		if proc.QueueLen() != 0 || refProc.QueueLen() != 0 {
			t.Fatalf("seed %d: ready queues not drained: pooled %d, reference %d", seed, proc.QueueLen(), refProc.QueueLen())
		}
	}
}

// completionRecorder adapts a func to EventHandler for the differential
// test's typed submissions.
type completionRecorder struct{ rec func() }

func (c completionRecorder) HandleEvent(Event) { c.rec() }

// TestTimerHandleSafetyAfterRecycle pins the generation-counter contract:
// a handle whose slot has been recycled for a later event must stay inert —
// Cancel returns false and must not cancel the slot's new occupant.
func TestTimerHandleSafetyAfterRecycle(t *testing.T) {
	e := NewEngine()
	fired := 0
	first := e.At(time.Millisecond, func() { fired++ })
	if !e.Step() {
		t.Fatal("no event to step")
	}
	// The slot is free now; the next timer reuses it.
	second := e.At(2*time.Millisecond, func() { fired++ })
	if first.Pending() {
		t.Error("stale handle reports pending after recycle")
	}
	if first.Cancel() {
		t.Error("stale handle cancelled a recycled slot")
	}
	if !second.Pending() {
		t.Error("stale Cancel hit the slot's new occupant")
	}
	e.Run()
	if fired != 2 {
		t.Errorf("fired %d events, want 2", fired)
	}
}

// TestReserveKeepsHandlesAndAllocatesOnce pins Reserve's two promises: timer
// handles taken before it moved the arena still cancel and report Pending
// correctly afterwards, and scheduling the reserved number of events then
// grows nothing.
func TestReserveKeepsHandlesAndAllocatesOnce(t *testing.T) {
	e := NewEngine()
	fired := map[string]bool{}
	keep := e.At(3*time.Millisecond, func() { fired["keep"] = true })
	drop := e.At(2*time.Millisecond, func() { fired["drop"] = true })
	gone := e.At(time.Millisecond, func() { fired["gone"] = true })
	e.Step() // gone fires; its slot goes to the free list

	// AllocsPerRun below calls its function twice: once to warm up, once to
	// measure.
	const n = 4096
	before := &e.slots[0]
	e.Reserve(2 * n)
	if &e.slots[0] == before {
		t.Fatal("Reserve did not move a three-slot arena: the test is not testing a move")
	}
	if !keep.Pending() || !drop.Pending() || gone.Pending() {
		t.Errorf("after Reserve: keep pending %v, drop pending %v, fired handle pending %v; want true, true, false",
			keep.Pending(), drop.Pending(), gone.Pending())
	}
	if !drop.Cancel() || drop.Cancel() || drop.Pending() {
		t.Error("a handle from before Reserve did not cancel exactly once")
	}
	if gone.Cancel() {
		t.Error("a fired handle cancelled something after Reserve")
	}
	if got := e.PendingCount(); got != 1 {
		t.Errorf("PendingCount = %d, want 1", got)
	}

	var h recordingHandler
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			e.AtEvent(time.Second+time.Duration(i), &h, Event{})
		}
	}); allocs != 0 {
		t.Errorf("scheduling the reserved events allocated %v times", allocs)
	}
	e.Run()
	if !fired["keep"] || fired["drop"] || !fired["gone"] {
		t.Errorf("fired %v, want keep and gone only", fired)
	}
	if h.n != 2*n {
		t.Errorf("typed events fired %d times, want %d", h.n, 2*n)
	}
}

// recordingHandler counts the typed events it is handed.
type recordingHandler struct{ n int }

func (h *recordingHandler) HandleEvent(Event) { h.n++ }
