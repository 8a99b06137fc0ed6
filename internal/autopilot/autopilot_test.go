package autopilot

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// stubBinding is an in-memory Binding: a watch hub for the sensor side and
// recorded Reconfigure/RemoveTasks calls for the actuator side.
type stubBinding struct {
	hub core.WatchHub

	mu           sync.Mutex
	cfg          core.Config
	reconfigs    []core.Config
	removed      [][]string
	failReconfig bool
}

func (s *stubBinding) Watch(opts core.WatchOptions) (*core.WatchStream, error) {
	return s.hub.Subscribe(opts), nil
}

func (s *stubBinding) Reconfigure(to core.Config) (*core.ReconfigReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failReconfig {
		return nil, errors.New("stub: reconfigure refused")
	}
	s.cfg = to
	s.reconfigs = append(s.reconfigs, to)
	return &core.ReconfigReport{}, nil
}

func (s *stubBinding) RemoveTasks(ids []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removed = append(s.removed, append([]string(nil), ids...))
	return nil
}

func (s *stubBinding) Snapshot() core.BindingSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.BindingSnapshot{Config: s.cfg}
}

func (s *stubBinding) removals() [][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]string, len(s.removed))
	copy(out, s.removed)
	return out
}

var (
	cfgCalm  = core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyNone}
	cfgBurst = core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyNone}
)

// propOptions are the shared controller options for the property tests:
// classification by absolute aggregate-rate thresholds only (MMPP fit and
// overload ratios disabled), so a schedule's regime is a pure function of
// its rate.
func propOptions() Options {
	return Options{
		Tick:       50 * time.Millisecond,
		Window:     200 * time.Millisecond,
		MinDwell:   300 * time.Millisecond,
		Cooldown:   700 * time.Millisecond,
		Calm:       cfgCalm,
		Burst:      cfgBurst,
		RateHigh:   150,
		RateLow:    80,
		BurstEnter: 1000, BurstExit: 999,
		MissHigh: 2, RejectHigh: 2,
	}
}

// driveSchedule runs the controller over a piecewise-constant rate schedule,
// emitting admitted events through the stub's hub and ticking every
// opts.Tick, exactly as the sim driver would.
type rateSegment struct {
	until time.Duration
	rate  float64 // arrivals/sec
}

func driveSchedule(t *testing.T, ap *Autopilot, stub *stubBinding, schedule []rateSegment) {
	t.Helper()
	tick := ap.opts.Tick
	now := time.Duration(0)
	carry := 0.0
	seg := 0
	horizon := schedule[len(schedule)-1].until
	for now < horizon {
		for seg < len(schedule)-1 && now >= schedule[seg].until {
			seg++
		}
		// Emit this tick's arrivals, evenly spaced, with fractional carry so
		// the long-run rate is exact.
		carry += schedule[seg].rate * tick.Seconds()
		n := int(carry)
		carry -= float64(n)
		for i := 0; i < n; i++ {
			at := now + time.Duration(float64(tick)*float64(i)/float64(n))
			stub.hub.Emit(core.WatchEvent{Kind: core.WatchAdmitted, Task: "t0", Job: int64(i), At: at})
		}
		now += tick
		ap.drain()
		ap.tick(now)
	}
}

// actuationTimes extracts the successful actuation instants from the journal.
func actuationTimes(ap *Autopilot) []time.Duration {
	var out []time.Duration
	for _, d := range ap.Journal() {
		if d.Err == "" {
			out = append(out, d.At)
		}
	}
	return out
}

// TestAutopilotNoFlapProperty is the randomized no-flap property test:
// whatever the regime schedule, any two successful actuations are separated
// by at least max(MinDwell, Cooldown).
func TestAutopilotNoFlapProperty(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		opts := propOptions()
		stub := &stubBinding{cfg: cfgCalm}
		if rng.Intn(2) == 1 {
			stub.cfg = cfgBurst
		}
		ap, err := New(opts)
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		if err := ap.attach(stub, 0); err != nil {
			t.Fatalf("trial %d: attach: %v", trial, err)
		}

		// Random piecewise schedule: segment lengths 200ms..2s, rates drawn
		// across the calm/hysteresis/burst bands, ~20s total.
		rates := []float64{10, 60, 120, 220, 400}
		var schedule []rateSegment
		until := time.Duration(0)
		for until < 20*time.Second {
			until += 200*time.Millisecond + time.Duration(rng.Int63n(int64(1800*time.Millisecond)))
			schedule = append(schedule, rateSegment{until: until, rate: rates[rng.Intn(len(rates))]})
		}
		driveSchedule(t, ap, stub, schedule)

		acts := actuationTimes(ap)
		minGap := opts.Cooldown
		if opts.MinDwell > minGap {
			minGap = opts.MinDwell
		}
		for i := 1; i < len(acts); i++ {
			if gap := acts[i] - acts[i-1]; gap < minGap {
				t.Fatalf("trial %d: actuations %d and %d only %v apart (min %v)\njournal: %+v",
					trial, i-1, i, gap, minGap, ap.Journal())
			}
		}
		st := ap.Stats()
		if st.Ticks == 0 || st.Events == 0 {
			t.Fatalf("trial %d: controller saw nothing (ticks %d, events %d)", trial, st.Ticks, st.Events)
		}
	}
}

// TestAutopilotStableRegimeNeverActuates: when the traffic never leaves one
// regime and the starting config already matches that regime's target, the
// dedup gate means zero actuations, ever.
func TestAutopilotStableRegimeNeverActuates(t *testing.T) {
	cases := []struct {
		name  string
		start core.Config
		rate  float64
	}{
		{"calm", cfgCalm, 10},
		{"burst", cfgBurst, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stub := &stubBinding{cfg: tc.start}
			ap, err := New(propOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := ap.attach(stub, 0); err != nil {
				t.Fatal(err)
			}
			driveSchedule(t, ap, stub, []rateSegment{{until: 10 * time.Second, rate: tc.rate}})
			if st := ap.Stats(); st.Actuations != 0 {
				t.Fatalf("stable %s regime actuated %d times: %+v", tc.name, st.Actuations, ap.Journal())
			}
			if len(stub.reconfigs) != 0 {
				t.Fatalf("binding saw %d reconfigures in a stable regime", len(stub.reconfigs))
			}
		})
	}
}

// TestAutopilotRegimeTransitions checks the intended behavior end to end: a
// calm→burst→calm schedule produces exactly two actuations with the right
// targets.
func TestAutopilotRegimeTransitions(t *testing.T) {
	stub := &stubBinding{cfg: cfgCalm}
	ap, err := New(propOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.attach(stub, 0); err != nil {
		t.Fatal(err)
	}
	driveSchedule(t, ap, stub, []rateSegment{
		{until: 5 * time.Second, rate: 10},
		{until: 10 * time.Second, rate: 400},
		{until: 15 * time.Second, rate: 10},
	})
	if len(stub.reconfigs) != 2 {
		t.Fatalf("expected 2 reconfigures (burst, then calm), got %v", stub.reconfigs)
	}
	if stub.reconfigs[0] != cfgBurst || stub.reconfigs[1] != cfgCalm {
		t.Fatalf("wrong targets: %v", stub.reconfigs)
	}
	st := ap.Stats()
	if st.Actuations != 2 {
		t.Fatalf("Stats.Actuations = %d, want 2", st.Actuations)
	}
	if st.Regime != "calm" {
		t.Fatalf("final regime %q, want calm", st.Regime)
	}
}

// TestAutopilotOverloadShed: the overload regime's RemoveTasks action fires
// exactly once per controller lifetime, shares the hysteresis gates, and is
// journaled.
func TestAutopilotOverloadShed(t *testing.T) {
	opts := propOptions()
	opts.RejectHigh = 0.5 // enable rejection-triggered overload
	opts.OverloadShed = []string{"victim"}
	var shedAt time.Duration
	opts.OnShed = func(at time.Duration, ids []string) { shedAt = at }
	stub := &stubBinding{cfg: cfgCalm}
	ap, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.attach(stub, 0); err != nil {
		t.Fatal(err)
	}

	// Drive two separated overload episodes: every arrival rejected.
	emitRejected := func(from, until time.Duration, rate float64) {
		tick := opts.Tick
		for now := from; now < until; now += tick {
			n := int(rate * tick.Seconds())
			for i := 0; i < n; i++ {
				at := now + time.Duration(float64(tick)*float64(i)/float64(n))
				stub.hub.Emit(core.WatchEvent{Kind: core.WatchRejected, Task: "victim", At: at})
			}
			ap.drain()
			ap.tick(now + tick)
		}
	}
	emitCalm := func(from, until time.Duration) {
		tick := opts.Tick
		for now := from; now < until; now += tick {
			stub.hub.Emit(core.WatchEvent{Kind: core.WatchAdmitted, Task: "t0", At: now})
			ap.drain()
			ap.tick(now + tick)
		}
	}
	emitRejected(0, 5*time.Second, 400)
	emitCalm(5*time.Second, 10*time.Second)
	emitRejected(10*time.Second, 15*time.Second, 400)

	removed := stub.removals()
	if len(removed) != 1 || len(removed[0]) != 1 || removed[0][0] != "victim" {
		t.Fatalf("expected exactly one shed of [victim], got %v", removed)
	}
	st := ap.Stats()
	if st.Sheds != 1 {
		t.Fatalf("Stats.Sheds = %d, want 1", st.Sheds)
	}
	if shedAt == 0 {
		t.Fatal("OnShed hook never ran")
	}
	var shedDecisions int
	for _, d := range ap.Journal() {
		if len(d.Shed) > 0 {
			shedDecisions++
			if d.Regime != "overload" {
				t.Fatalf("shed decision in regime %q", d.Regime)
			}
		}
	}
	if shedDecisions != 1 {
		t.Fatalf("journal has %d shed decisions, want 1", shedDecisions)
	}
}

// TestAutopilotActuationError: a refused Reconfigure journals the error,
// counts in ActuationErrors, and leaves the active config unchanged so the
// controller retries after the dwell.
func TestAutopilotActuationError(t *testing.T) {
	stub := &stubBinding{cfg: cfgCalm, failReconfig: true}
	ap, err := New(propOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.attach(stub, 0); err != nil {
		t.Fatal(err)
	}
	driveSchedule(t, ap, stub, []rateSegment{{until: 5 * time.Second, rate: 400}})
	st := ap.Stats()
	if st.Actuations != 0 {
		t.Fatalf("Actuations = %d despite failing binding", st.Actuations)
	}
	if st.ActuationErrors == 0 {
		t.Fatal("no actuation errors recorded")
	}
	j := ap.Journal()
	if len(j) == 0 || j[0].Err == "" {
		t.Fatalf("journal missing error decisions: %+v", j)
	}
}

// TestAutopilotMaxActuationsCap: the hard cap stops the controller even when
// the regime keeps changing.
func TestAutopilotMaxActuationsCap(t *testing.T) {
	opts := propOptions()
	opts.MaxActuations = 1
	stub := &stubBinding{cfg: cfgCalm}
	ap, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.attach(stub, 0); err != nil {
		t.Fatal(err)
	}
	driveSchedule(t, ap, stub, []rateSegment{
		{until: 5 * time.Second, rate: 400},
		{until: 10 * time.Second, rate: 10},
		{until: 15 * time.Second, rate: 400},
	})
	st := ap.Stats()
	if st.Actuations != 1 {
		t.Fatalf("Actuations = %d, want the cap of 1", st.Actuations)
	}
	if st.SuppressedCap == 0 {
		t.Fatal("cap suppression never counted")
	}
}

// TestAutopilotLiveDriverConcurrency exercises the wall-clock driver under
// the race detector: the live goroutine ingests and ticks while other
// goroutines emit events and read Stats/Journal/Snapshot concurrently.
func TestAutopilotLiveDriverConcurrency(t *testing.T) {
	opts := propOptions()
	opts.Tick = time.Millisecond
	stub := &stubBinding{cfg: cfgCalm}
	ap, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Start(stub); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		i := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
				stub.hub.Emit(core.WatchEvent{
					Kind: core.WatchAdmitted, Task: "t0", Job: i,
					At: time.Duration(time.Now().UnixNano()),
				})
				i++
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = ap.Stats()
				_ = ap.Journal()
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	ap.Stop()
	ap.Stop() // idempotent
	if st := ap.Stats(); st.Events == 0 || st.Ticks == 0 {
		t.Fatalf("live driver idle: %+v", st)
	}
}

// TestOptionsValidate rejects incoherent hysteresis bands.
func TestOptionsValidate(t *testing.T) {
	bad := propOptions()
	bad.BurstEnter, bad.BurstExit = 2, 3
	if _, err := New(bad); err == nil {
		t.Fatal("expected error for exit >= enter")
	}
	bad = propOptions()
	bad.RateHigh, bad.RateLow = 100, 200
	if _, err := New(bad); err == nil {
		t.Fatal("expected error for low > high")
	}
}

// TestRingDecay: a silent stretch slides the window empty.
func TestRingDecay(t *testing.T) {
	r := newRing(200*time.Millisecond, 8)
	for i := 0; i < 10; i++ {
		r.add(time.Duration(i) * 10 * time.Millisecond)
	}
	r.advance(100 * time.Millisecond)
	if got := r.sum(); got != 10 {
		t.Fatalf("sum after fill = %d, want 10", got)
	}
	r.advance(time.Second)
	if got := r.sum(); got != 0 {
		t.Fatalf("sum after silence = %d, want 0", got)
	}
}

// TestAutopilotHotPathsAllocFree holds the controller's two hot paths to zero
// allocations once every task estimator exists: ingest runs once per job
// lifecycle event, tick once per decision window.
func TestAutopilotHotPathsAllocFree(t *testing.T) {
	ap, events := warmAutopilot(t, Options{})
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		ap.ingest(events[i%len(events)])
		i++
	}); allocs != 0 {
		t.Errorf("ingest allocates %v times per event, want 0", allocs)
	}

	ap, events = warmTickAutopilot(t)
	now := events[len(events)-1].At
	if allocs := testing.AllocsPerRun(100, func() {
		now += ap.opts.Tick
		ap.tick(now)
	}); allocs != 0 {
		t.Errorf("tick allocates %v times, want 0", allocs)
	}
}
