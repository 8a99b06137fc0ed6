package des

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestEngineDifferential drives random schedule/send/submit/step/run-until
// sequences through the pooled engine and the retained reference engine and
// asserts identical (time, seq, fired) behavior, including nested
// scheduling, sends and submits from inside callbacks. Sends go over three
// links, of delay zero and two others; the reference receives each as
// After(delay). Work goes to two or three processors at random priorities,
// so completions preempt one another and tie with timers and sends; the
// reference runs refProcessors on its own engine.
func TestEngineDifferential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			engineDifferential(t, rng, 200+rng.Intn(400))
		})
	}
}

// FuzzEngineOps decodes the input into engineDifferential's choices and
// holds the two engines to the same agreement. The seed corpus is a few
// generated byte strings.
func FuzzEngineOps(f *testing.F) {
	for i := int64(0); i < 3; i++ {
		data := make([]byte, 2048)
		rand.New(rand.NewSource(i)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// An operation reads some ten bytes on average.
		engineDifferential(t, &byteSource{data}, min(len(data)/10, 400))
	})
}

// intSource supplies engineDifferential's choices: a seeded generator in the
// test, the fuzzer's bytes in FuzzEngineOps.
type intSource interface{ Intn(n int) int }

// byteSource reads choices off a byte string, and zeros once it is used up.
type byteSource struct{ b []byte }

func (s *byteSource) Intn(n int) int {
	v := 0
	for i := 0; i < 2 && len(s.b) > 0; i++ {
		v = v<<8 | int(s.b[0])
		s.b = s.b[1:]
	}
	return v % n
}

// What a differential event does when it fires, besides recording itself.
const (
	followNone   = iota
	followTimer  // schedules a timer follow-up at now+delay
	followSend   // sends a follow-up on a link
	followSubmit // submits follow-up work to a processor
)

// follow is a differential event's follow-up: its kind, the timer's delay
// or the work's execution time, the link a send goes on, and the processor
// and priority a submit goes to.
type follow struct {
	kind       int
	delay      time.Duration
	link       int
	proc, prio int
}

// idleID is the trace ID of processor k's idle callback.
func idleID(k int) int { return math.MinInt32 - k }

// engineDiff is the state of one differential run: both engines, the
// pooled engine's links and their delays, both engines' processors, the
// follow-up of every event by ID, and the two traces. It is the handler of
// every link send and every completion on the pooled engine; the event's N
// is its ID.
type engineDiff struct {
	eng            *Engine
	ref            *refEngine
	links          []*Link
	delays         []time.Duration
	procs          []*Processor
	refProcs       []*refProcessor
	follows        []follow
	gotNew, gotRef []traceRec
	agreed         int // trace records agree has compared
}

// fireNew records event id on the pooled engine's trace and starts its
// follow-up there, recorded under the derived ID -id-1, which has none.
func (d *engineDiff) fireNew(id int) {
	d.gotNew = append(d.gotNew, traceRec{at: d.eng.Now(), id: id})
	if id < 0 {
		return
	}
	f, nid := d.follows[id], -id-1
	switch f.kind {
	case followTimer:
		d.eng.At(d.eng.Now()+f.delay, func() { d.fireNew(nid) })
	case followSend:
		d.links[f.link].SendEvent(d, Event{N: int64(nid)})
	case followSubmit:
		d.procs[f.proc].SubmitEvent(f.prio, f.delay, d, Event{N: int64(nid)})
	}
}

// fireRef is fireNew on the reference engine, where a send is an After.
func (d *engineDiff) fireRef(id int) {
	d.gotRef = append(d.gotRef, traceRec{at: d.ref.Now(), id: id})
	if id < 0 {
		return
	}
	f, nid := d.follows[id], -id-1
	switch f.kind {
	case followTimer:
		d.ref.After(f.delay, func() { d.fireRef(nid) })
	case followSend:
		d.ref.After(d.delays[f.link], func() { d.fireRef(nid) })
	case followSubmit:
		d.refSubmit(f.proc, f.prio, f.delay, nid)
	}
}

// refSubmit submits work recorded as id to reference processor k.
func (d *engineDiff) refSubmit(k, prio int, exec time.Duration, id int) {
	d.refProcs[k].Submit(&refExecRequest{Priority: prio, Remaining: exec, OnComplete: func() { d.fireRef(id) }})
}

// HandleEvent fires a link send or a completion on the pooled engine.
func (d *engineDiff) HandleEvent(ev Event) { d.fireNew(int(ev.N)) }

// agree fails t unless both engines agree on the clock, Fired,
// PendingCount, every processor's busy time and the trace records added
// since the last call.
func (d *engineDiff) agree(t *testing.T, when string) {
	t.Helper()
	if d.eng.Now() != d.ref.Now() {
		t.Fatalf("%s: clock drift: pooled %v, reference %v", when, d.eng.Now(), d.ref.Now())
	}
	// The aggregate counters: O(1) pooled against the reference's scan.
	if d.eng.PendingCount() != d.ref.PendingCount() || d.eng.Fired() != d.ref.Fired() {
		t.Fatalf("%s: PendingCount %d, Fired %d; reference %d, %d", when, d.eng.PendingCount(), d.eng.Fired(), d.ref.PendingCount(), d.ref.Fired())
	}
	for k, p := range d.procs {
		if p.BusyTime != d.refProcs[k].BusyTime {
			t.Fatalf("%s: processor %d busy %v, reference %v", when, k, p.BusyTime, d.refProcs[k].BusyTime)
		}
	}
	if len(d.gotNew) != len(d.gotRef) {
		t.Fatalf("%s: trace length %d != reference %d", when, len(d.gotNew), len(d.gotRef))
	}
	for i := d.agreed; i < len(d.gotNew); i++ {
		if d.gotNew[i] != d.gotRef[i] {
			t.Fatalf("%s: trace diverges at %d: pooled %+v, reference %+v", when, i, d.gotNew[i], d.gotRef[i])
		}
	}
	d.agreed = len(d.gotNew)
}

// engineDifferential runs ops random operations on a fresh pooled engine
// and a fresh reference engine, then drains both, failing t at the first
// disagreement in a return value, the clock, Fired, PendingCount, a
// processor's busy time or the firing trace.
func engineDifferential(t *testing.T, src intSource, ops int) {
	t.Helper()
	d := &engineDiff{eng: NewEngine(), ref: newRefEngine()}
	eng, ref := d.eng, d.ref
	d.delays = []time.Duration{0, time.Duration(1+src.Intn(50)) * time.Millisecond, time.Duration(1+src.Intn(200)) * time.Millisecond}
	for _, delay := range d.delays {
		d.links = append(d.links, NewLink(eng, delay))
	}
	for k := 0; k < 2+src.Intn(2); k++ {
		p, rp := NewProcessor(eng, k), newRefProcessor(ref, k)
		p.SetIdleCallback(func() { d.gotNew = append(d.gotNew, traceRec{at: eng.Now(), id: idleID(k)}) })
		rp.SetIdleCallback(func() { d.gotRef = append(d.gotRef, traceRec{at: ref.Now(), id: idleID(k)}) })
		d.procs, d.refProcs = append(d.procs, p), append(d.refProcs, rp)
	}
	// randWork draws a submit's processor (k, unless negative), priority and
	// execution time.
	randWork := func(k int) follow {
		if k < 0 {
			k = src.Intn(len(d.procs))
		}
		return follow{kind: followSubmit, proc: k, prio: 1 + src.Intn(4), delay: time.Duration(1+src.Intn(30)) * time.Millisecond}
	}
	// One event in four has a follow-up, so the trace exercises nested
	// scheduling, slot reuse inside Step, and sends and submits from inside
	// callbacks. Work that completes submits its follow-up to its own
	// processor (proc), as a simulated job hands a stage on locally.
	newID := func(proc int) int {
		var f follow
		switch src.Intn(8) {
		case 0:
			f = follow{kind: followTimer, delay: time.Duration(src.Intn(20)) * time.Millisecond}
		case 1:
			f = follow{kind: followSend, link: src.Intn(len(d.links))}
		case 2:
			f = randWork(proc)
		}
		d.follows = append(d.follows, f)
		return len(d.follows) - 1
	}
	// schedule registers the same logical timer on both engines.
	schedule := func(at time.Duration) {
		id := newID(-1)
		eng.At(at, func() { d.fireNew(id) })
		ref.At(at, func() { d.fireRef(id) })
	}
	// send puts the same logical message on link k of the pooled engine and
	// after its delay on the reference.
	send := func(k int) {
		id := newID(-1)
		d.links[k].SendEvent(d, Event{N: int64(id)})
		ref.After(d.delays[k], func() { d.fireRef(id) })
	}
	// submit puts the same logical work on processor k of both engines.
	submit := func(k int) {
		w := randWork(k)
		id := newID(k)
		d.procs[k].SubmitEvent(w.prio, w.delay, d, Event{N: int64(id)})
		d.refSubmit(k, w.prio, w.delay, id)
	}

	for op := 0; op < ops; op++ {
		switch src.Intn(11) {
		case 0, 1, 2, 3:
			schedule(eng.Now() + time.Duration(src.Intn(500))*time.Millisecond)
		case 4:
			// Same-instant events must fire FIFO on both engines.
			at := eng.Now() + time.Duration(src.Intn(50))*time.Millisecond
			for i := 0; i < 1+src.Intn(4); i++ {
				schedule(at)
			}
		case 5:
			for i := 0; i < 1+src.Intn(10); i++ {
				if sNew, sRef := eng.Step(), ref.Step(); sNew != sRef {
					t.Fatalf("Step disagreement: pooled %v, reference %v", sNew, sRef)
				}
			}
		case 6:
			h := eng.Now() + time.Duration(src.Intn(800))*time.Millisecond
			eng.RunUntil(h)
			ref.RunUntil(h)
		case 7, 8:
			// A burst of sends on one link.
			k := src.Intn(len(d.links))
			for i := 0; i < 1+src.Intn(4); i++ {
				send(k)
			}
		case 9, 10:
			// A burst of work on one processor; a higher priority preempts.
			k := src.Intn(len(d.procs))
			for i := 0; i < 1+src.Intn(3); i++ {
				submit(k)
			}
		}
		d.agree(t, fmt.Sprintf("op %d", op))
	}
	eng.Run()
	ref.Run()
	d.agree(t, "drained")
	if eng.PendingCount() != 0 || ref.PendingCount() != 0 {
		t.Fatal("events left pending after Run")
	}
	for k, p := range d.procs {
		if !p.Idle() || !d.refProcs[k].Idle() {
			t.Fatalf("processor %d not idle after Run", k)
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

// TestPendingTimersSurviveGrowth grows the slot arena by two chunks while
// timers wait in the first: they still fire, in time order, before the
// later ones. The differential harness never queues a chunk's worth.
func TestPendingTimersSurviveGrowth(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.At(3*time.Millisecond, func() { fired = append(fired, "third") })
	e.At(2*time.Millisecond, func() { fired = append(fired, "second") })
	e.At(time.Millisecond, func() { fired = append(fired, "first") })
	e.Step() // first fires; its slot goes to the free list

	var h recordingHandler
	for i := 0; i < 2*slotChunk; i++ {
		e.AtEvent(time.Second+time.Duration(i), &h, Event{})
	}
	if len(e.slots) != 3 {
		t.Fatalf("%d chunks, want 3: the test is not testing growth", len(e.slots))
	}
	if got := e.PendingCount(); got != 2+2*slotChunk {
		t.Errorf("PendingCount = %d, want %d", got, 2+2*slotChunk)
	}
	e.Run()
	if want := []string{"first", "second", "third"}; !slices.Equal(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
	if h.n != 2*slotChunk {
		t.Errorf("typed events fired %d times, want %d", h.n, 2*slotChunk)
	}
}

// TestLinkSendAllocFree pins the lane's steady state: once the lane has
// grown, a send and its firing allocate nothing.
func TestLinkSendAllocFree(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, time.Millisecond)
	var h recordingHandler
	l.SendEvent(&h, Event{})
	e.Run()
	if allocs := testing.AllocsPerRun(100, func() {
		l.SendEvent(&h, Event{N: 1})
		if !e.Step() {
			t.Fatal("the send did not fire")
		}
	}); allocs != 0 {
		t.Errorf("a send and its firing allocate %v times, want 0", allocs)
	}
	if h.n != 102 {
		t.Errorf("the handler saw %d sends, want 102", h.n)
	}
}

// recordingHandler counts the typed events it is handed.
type recordingHandler struct{ n int }

func (h *recordingHandler) HandleEvent(Event) { h.n++ }
