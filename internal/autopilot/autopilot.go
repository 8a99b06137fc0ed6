// Package autopilot closes the control loop the paper leaves to an
// operator: it tails a binding's Watch stream into lock-free sliding-window
// estimators (per-task arrival rate and burstiness via a two-state
// MMPP/Markov-modulated fit, deadline-miss and rejection rates), detects
// regime shifts with an EWMA mean plus a two-sided CUSUM change detector,
// and maps the detected regime to a strategy configuration through a policy
// engine with hysteresis — minimum regime dwell time, a cooldown after every
// actuation, and action deduplication — so the controller provably never
// flaps. The same controller drives both bindings: in the simulation its
// ticks ride SimSystem.At (virtual time, deterministic and replayable); on
// the live cluster a goroutine ticks on the wall clock.
//
// The no-flap guarantee is structural, not statistical. An actuation
// requires (1) the classified regime to have been stable for at least
// MinDwell, (2) at least Cooldown elapsed since the previous actuation, and
// (3) the regime's target config to differ from the active one. After
// actuating, the active config equals the regime's target, so an unchanged
// regime can never actuate again (dedup), and any two actuations are
// separated by at least max(MinDwell, Cooldown) because a different regime
// must first survive its own dwell.
package autopilot

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Regime is the controller's classification of the traffic the window shows.
type Regime int32

// Regimes, ordered by escalation.
const (
	// RegimeCalm is the stationary background regime: no task in its MMPP
	// burst state and the aggregate arrival rate at or under RateLow.
	RegimeCalm Regime = iota + 1
	// RegimeBurst is elevated arrivals: some task's MMPP fit is in its burst
	// state, or the aggregate rate crossed RateHigh.
	RegimeBurst
	// RegimeOverload is confirmed damage: the windowed deadline-miss or
	// rejection rate crossed its ceiling.
	RegimeOverload
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case RegimeCalm:
		return "calm"
	case RegimeBurst:
		return "burst"
	case RegimeOverload:
		return "overload"
	default:
		return fmt.Sprintf("Regime(%d)", int32(r))
	}
}

// Options tunes the controller. Durations and rates are in the binding's
// timebase — virtual time in the sim, wall-clock on the live cluster; Scale
// converts sim-time options for a time-compressed live run. The zero value
// of every field selects a sensible default.
type Options struct {
	// Tick is the decision cadence.
	Tick time.Duration
	// Window is the sliding estimator window; Buckets its ring resolution.
	Window  time.Duration
	Buckets int

	// MinDwell is how long a classified regime must persist before the
	// policy may act on it; Cooldown the minimum gap after an actuation
	// before the next one. Together with action dedup they are the no-flap
	// hysteresis.
	MinDwell time.Duration
	Cooldown time.Duration
	// MaxActuations caps total actuations (0 = unbounded). The cap is a
	// hard safety stop, not the normal bounding mechanism — hysteresis is.
	MaxActuations int64

	// Calm, Burst and Overload are the policy table: the configuration each
	// regime steers toward. Zero values default to T_T_N for calm (cached
	// per-task admission, cheapest steady-state path), J_J_N for burst
	// (per-job testing sheds what the bound cannot hold), and the burst
	// config for overload.
	Calm     core.Config
	Burst    core.Config
	Overload core.Config

	// BurstEnter and BurstExit are the per-task MMPP fit thresholds, as
	// multiples of the task's EWMA base rate (enter > exit for hysteresis).
	BurstEnter float64
	BurstExit  float64
	// RateHigh and RateLow are absolute aggregate arrival-rate thresholds
	// (events/sec) that classify burst/calm independent of the MMPP fit —
	// they catch slow ramps (diurnal tides) the ratio test tracks too
	// closely to trip on. Zero disables the absolute test.
	RateHigh float64
	RateLow  float64
	// MissHigh and RejectHigh are windowed deadline-miss and rejection-rate
	// ceilings that classify overload. A value above 1 can never trigger,
	// which is the idiom for disabling one of the two overload signals.
	MissHigh   float64
	RejectHigh float64

	// OverloadShed names load-shedding victim tasks: the first time the
	// controller actuates in the overload regime it also RemoveTasks them —
	// the policy engine's structural action beyond strategy swaps. At most
	// once per controller lifetime (removal is not reversible from here).
	OverloadShed []string

	// EWMAAlpha smooths the estimator means; CUSUMSlack and CUSUMThreshold
	// parameterize the change detector (normalized units).
	EWMAAlpha      float64
	CUSUMSlack     float64
	CUSUMThreshold float64

	// WatchBuffer sizes the controller's Watch subscription.
	WatchBuffer int
	// JournalCap bounds the decision journal (oldest entries dropped).
	JournalCap int

	// OnAction, if set, is called synchronously after every successful
	// actuation with the actuation time and the config transition — the
	// scenario recorder uses it to journal actuations as replayable
	// reconfigure ops. OnShed is the analogue for an overload shed: it runs
	// just before the RemoveTasks call, so a caller submitting arrivals from
	// another goroutine journals the removal and retires the tasks from its
	// own bookkeeping first, and never submits to a task the binding has
	// dropped. A failed removal is retried on a later tick; the hook runs again.
	OnAction func(at time.Duration, from, to core.Config)
	OnShed   func(at time.Duration, ids []string)
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Tick <= 0 {
		o.Tick = 250 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = time.Second
	}
	if o.Buckets <= 0 {
		o.Buckets = 8
	}
	if o.MinDwell <= 0 {
		o.MinDwell = 500 * time.Millisecond
	}
	if o.Cooldown <= 0 {
		o.Cooldown = time.Second
	}
	if o.Calm == (core.Config{}) {
		o.Calm = core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyNone}
	}
	if o.Burst == (core.Config{}) {
		o.Burst = core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyNone}
	}
	if o.Overload == (core.Config{}) {
		o.Overload = o.Burst
	}
	if o.BurstEnter <= 0 {
		o.BurstEnter = 3
	}
	if o.BurstExit <= 0 {
		o.BurstExit = 1.5
	}
	if o.MissHigh <= 0 {
		o.MissHigh = 0.3
	}
	if o.RejectHigh <= 0 {
		o.RejectHigh = 0.5
	}
	if o.EWMAAlpha <= 0 {
		o.EWMAAlpha = 0.2
	}
	if o.CUSUMSlack <= 0 {
		o.CUSUMSlack = 0.25
	}
	if o.CUSUMThreshold <= 0 {
		o.CUSUMThreshold = 2
	}
	if o.WatchBuffer <= 0 {
		o.WatchBuffer = 1 << 15
	}
	if o.JournalCap <= 0 {
		o.JournalCap = 256
	}
	return o
}

// Scale converts scenario-time options for a live run compressed by factor f
// (f = 10 means 10x faster than scenario time): durations divide by f, rate
// thresholds multiply by f. Ratios and rate-of-rate thresholds are
// dimensionless and pass through.
func (o Options) Scale(f float64) Options {
	if f <= 0 || f == 1 {
		return o
	}
	o.Tick = time.Duration(float64(o.Tick) / f)
	o.Window = time.Duration(float64(o.Window) / f)
	o.MinDwell = time.Duration(float64(o.MinDwell) / f)
	o.Cooldown = time.Duration(float64(o.Cooldown) / f)
	o.RateHigh *= f
	o.RateLow *= f
	return o
}

// validate rejects incoherent options after defaulting.
func (o Options) validate() error {
	for _, c := range []core.Config{o.Calm, o.Burst, o.Overload} {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("autopilot: policy config: %w", err)
		}
	}
	if o.BurstExit >= o.BurstEnter {
		return fmt.Errorf("autopilot: burst hysteresis needs exit (%g) < enter (%g)", o.BurstExit, o.BurstEnter)
	}
	if o.RateHigh > 0 && o.RateLow > o.RateHigh {
		return fmt.Errorf("autopilot: rate hysteresis needs low (%g) <= high (%g)", o.RateLow, o.RateHigh)
	}
	return nil
}

// minSamples is the windowed event count below which the miss and rejection
// ratios are considered too noisy to classify overload from.
const minSamples = 8

// minRateFloor floors MMPP base rates and CUSUM normalization so near-idle
// tasks don't produce unbounded ratios (events/sec).
const minRateFloor = 1.0

// WindowStats is one tick's view of the sliding window, recorded with every
// decision so the journal explains what the controller saw.
type WindowStats struct {
	// AggRate is the aggregate admitted+rejected arrival rate (events/sec).
	AggRate float64 `json:"agg_rate"`
	// MissRate is windowed deadline misses over completions; RejectRate
	// windowed rejections over arrivals.
	MissRate   float64 `json:"miss_rate"`
	RejectRate float64 `json:"reject_rate"`
	// Arrivals and Completions are the windowed raw counts behind the
	// ratios.
	Arrivals    int64 `json:"arrivals"`
	Completions int64 `json:"completions"`
	// BurstTasks is how many tasks' MMPP fits are in the burst state.
	BurstTasks int `json:"burst_tasks"`
	// WatchDropped is the controller's cumulative sensor loss: events its
	// subscription dropped because ingest fell behind.
	WatchDropped int64 `json:"watch_dropped"`
}

// Decision is one journal entry: an actuation and why it fired.
type Decision struct {
	// At is the actuation time in the binding's timebase (ns).
	At time.Duration `json:"at_ns"`
	// Seq numbers actuations from 1.
	Seq int64 `json:"seq"`
	// Regime is the classification that triggered the actuation; Trigger a
	// human-readable statement of the signal that selected it.
	Regime  string `json:"regime"`
	Trigger string `json:"trigger"`
	// From and To are the config transition (equal when the decision only
	// shed tasks).
	From string `json:"from"`
	To   string `json:"to"`
	// Shed lists tasks the decision removed (overload shedding).
	Shed []string `json:"shed,omitempty"`
	// Stats is the window snapshot the classification was made from.
	Stats WindowStats `json:"stats"`
	// Err records an actuation failure (the decision still journals).
	Err string `json:"err,omitempty"`
}

// Stats are the controller's cumulative counters.
type Stats struct {
	// Events is total Watch events ingested; Ticks total decision ticks.
	Events int64 `json:"events"`
	Ticks  int64 `json:"ticks"`
	// ShiftAlarms counts CUSUM change alarms; RegimeChanges classified
	// regime transitions (actuated or not).
	ShiftAlarms   int64 `json:"shift_alarms"`
	RegimeChanges int64 `json:"regime_changes"`
	// Actuations counts successful Reconfigure calls; ActuationErrors
	// failed ones; Sheds tasks removed by overload shedding.
	Actuations      int64 `json:"actuations"`
	ActuationErrors int64 `json:"actuation_errors"`
	Sheds           int64 `json:"sheds"`
	// SuppressedDwell, SuppressedCooldown and SuppressedCap count ticks
	// where a config change was wanted but hysteresis (or the hard cap)
	// held it back — the visible no-flap machinery.
	SuppressedDwell    int64 `json:"suppressed_dwell"`
	SuppressedCooldown int64 `json:"suppressed_cooldown"`
	SuppressedCap      int64 `json:"suppressed_cap"`
	// WatchDropped is sensor loss on the controller's own subscription.
	WatchDropped int64 `json:"watch_dropped"`
	// Regime is the current classification.
	Regime string `json:"regime"`
}

// Autopilot is the controller. Ingest and tick run on a single goroutine
// (the sim engine thread or the live driver); Stats and Journal are safe
// from any goroutine.
type Autopilot struct {
	opts Options

	bind   Binding
	stream *core.WatchStream

	// Estimators. tasks is touched only on the driver goroutine (ingest and
	// tick); the rings inside are atomic for Stats readers.
	tasks       map[string]*taskEst
	arrivals    *ring
	rejects     *ring
	completions *ring
	misses      *ring

	detector cusum

	// Policy state (driver goroutine only).
	regime      Regime
	regimeSince time.Duration
	active      core.Config
	lastAct     time.Duration
	actuated    bool
	shedDone    bool
	started     bool

	// Counters (atomic: read by Stats from any goroutine).
	events             atomic.Int64
	ticks              atomic.Int64
	shiftAlarms        atomic.Int64
	regimeChanges      atomic.Int64
	actuations         atomic.Int64
	actuationErrors    atomic.Int64
	sheds              atomic.Int64
	suppressedDwell    atomic.Int64
	suppressedCooldown atomic.Int64
	suppressedCap      atomic.Int64
	curRegime          atomic.Int32

	journalMu sync.Mutex
	journal   []Decision

	// Live driver plumbing.
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// New builds a controller from the options (defaults applied, then
// validated). The controller is inert until attached to a binding with
// AttachSim or Start.
func New(opts Options) (*Autopilot, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	a := &Autopilot{
		opts:        opts,
		tasks:       make(map[string]*taskEst),
		arrivals:    newRing(opts.Window, opts.Buckets),
		rejects:     newRing(opts.Window, opts.Buckets),
		completions: newRing(opts.Window, opts.Buckets),
		misses:      newRing(opts.Window, opts.Buckets),
		detector:    cusum{alpha: opts.EWMAAlpha, k: opts.CUSUMSlack, h: opts.CUSUMThreshold},
		regime:      RegimeCalm,
	}
	a.curRegime.Store(int32(RegimeCalm))
	return a, nil
}

// ingest folds one Watch event into the estimators. Hot path: a map lookup
// and one or two atomic ring adds — no locks, no allocations (task add and
// remove are the cold exceptions).
//
//rtmw:noalloc
func (a *Autopilot) ingest(ev core.WatchEvent) {
	a.events.Add(1)
	switch ev.Kind {
	case core.WatchAdmitted:
		a.arrivals.add(ev.At)
		a.taskFor(ev.Task).arrivals.add(ev.At)
	case core.WatchRejected:
		a.arrivals.add(ev.At)
		a.rejects.add(ev.At)
		a.taskFor(ev.Task).arrivals.add(ev.At)
	case core.WatchCompleted:
		a.completions.add(ev.At)
	case core.WatchDeadlineMiss:
		a.misses.add(ev.At)
	case core.WatchTaskAdded:
		a.addTask(ev.Task)
	case core.WatchTaskRemoved:
		if t := a.tasks[ev.Task]; t != nil {
			t.removed = true
		}
	case core.WatchReconfigured:
		// The actuator's own confirmation; the policy tracks intent (the
		// config it last commanded), so nothing to fold in.
	}
}

// taskFor returns the task's estimator, registering one on first sight —
// tasks present before the controller subscribed never emit TaskAdded, so
// their first arrival registers them (a one-time allocation per task; the
// steady-state ingest path stays allocation-free).
func (a *Autopilot) taskFor(id string) *taskEst {
	t, ok := a.tasks[id]
	if !ok {
		t = &taskEst{id: id, arrivals: newRing(a.opts.Window, a.opts.Buckets)}
		a.tasks[id] = t
	}
	return t
}

// addTask registers an estimator for a task (idempotent).
func (a *Autopilot) addTask(id string) {
	a.taskFor(id).removed = false
}

// window summarizes the sliding window at `now`, advancing every ring so a
// silent stretch decays the estimates.
func (a *Autopilot) window(now time.Duration) WindowStats {
	a.arrivals.advance(now)
	a.rejects.advance(now)
	a.completions.advance(now)
	a.misses.advance(now)
	st := WindowStats{
		Arrivals:    a.arrivals.sum(),
		Completions: a.completions.sum(),
	}
	st.AggRate = a.arrivals.rate()
	if st.Completions > 0 {
		st.MissRate = float64(a.misses.sum()) / float64(st.Completions)
	}
	if st.Arrivals > 0 {
		st.RejectRate = float64(a.rejects.sum()) / float64(st.Arrivals)
	}
	o := &a.opts
	for _, t := range a.tasks {
		if t.removed {
			continue
		}
		t.arrivals.advance(now)
		if t.observe(o.EWMAAlpha, o.BurstEnter, o.BurstExit, minRateFloor) {
			st.BurstTasks++
		}
	}
	if a.stream != nil {
		st.WatchDropped = a.stream.Dropped()
	}
	return st
}

// classify maps the window onto a regime. The neutral band — no burst
// signal but the aggregate rate still above RateLow — keeps the previous
// regime, which is the classifier's own hysteresis.
func (a *Autopilot) classify(st WindowStats) (Regime, string) {
	if st.Completions >= minSamples && st.MissRate >= a.opts.MissHigh {
		return RegimeOverload, fmt.Sprintf("window miss rate %.2f >= %.2f", st.MissRate, a.opts.MissHigh)
	}
	if st.Arrivals >= minSamples && st.RejectRate >= a.opts.RejectHigh {
		return RegimeOverload, fmt.Sprintf("window reject rate %.2f >= %.2f", st.RejectRate, a.opts.RejectHigh)
	}
	if st.BurstTasks > 0 {
		return RegimeBurst, fmt.Sprintf("%d task(s) in MMPP burst state", st.BurstTasks)
	}
	if a.opts.RateHigh > 0 && st.AggRate >= a.opts.RateHigh {
		return RegimeBurst, fmt.Sprintf("aggregate rate %.1f/s >= %.1f/s", st.AggRate, a.opts.RateHigh)
	}
	if a.opts.RateLow <= 0 || st.AggRate <= a.opts.RateLow {
		return RegimeCalm, "no burst signal"
	}
	return a.regime, "rate in hysteresis band; holding regime"
}

// target is the policy table.
func (a *Autopilot) target(r Regime) core.Config {
	switch r {
	case RegimeBurst:
		return a.opts.Burst
	case RegimeOverload:
		return a.opts.Overload
	default:
		return a.opts.Calm
	}
}

// tick runs one decision round at `now`: summarize the window, update the
// change detector, classify, and actuate if — and only if — the hysteresis
// gate opens.
//
//rtmw:noalloc
func (a *Autopilot) tick(now time.Duration) {
	a.ticks.Add(1)
	st := a.window(now)
	if a.detector.update(st.AggRate, minRateFloor) {
		a.shiftAlarms.Add(1)
	}
	regime, trigger := a.classify(st)
	if regime != a.regime {
		a.regime = regime
		a.regimeSince = now
		a.regimeChanges.Add(1)
		a.curRegime.Store(int32(regime))
	}
	to := a.target(a.regime)
	shed := a.regime == RegimeOverload && !a.shedDone && len(a.opts.OverloadShed) > 0
	if to == a.active && !shed {
		return // dedup: the regime's config is already live
	}
	if now-a.regimeSince < a.opts.MinDwell {
		a.suppressedDwell.Add(1)
		return
	}
	if a.actuated && now-a.lastAct < a.opts.Cooldown {
		a.suppressedCooldown.Add(1)
		return
	}
	if a.opts.MaxActuations > 0 && a.actuations.Load() >= a.opts.MaxActuations {
		a.suppressedCap.Add(1)
		return
	}
	a.actuate(now, a.regime, trigger, to, shed, st)
}

// actuate commands the binding — a Reconfigure toward the target config,
// plus the one-time overload shed when asked — and journals the decision.
func (a *Autopilot) actuate(now time.Duration, regime Regime, trigger string, to core.Config, shed bool, st WindowStats) {
	from := a.active
	d := Decision{
		At:      now,
		Regime:  regime.String(),
		Trigger: trigger,
		From:    from.String(),
		To:      to.String(),
		Stats:   st,
	}
	if to != a.active {
		if _, err := a.bind.Reconfigure(to); err != nil {
			a.actuationErrors.Add(1)
			d.Err = err.Error()
			d.Seq = a.actuations.Load()
			a.record(d)
			return
		}
		a.active = to
		a.lastAct = now
		a.actuated = true
		d.Seq = a.actuations.Add(1)
		if a.opts.OnAction != nil {
			a.opts.OnAction(now, from, to)
		}
	}
	if shed {
		if a.opts.OnShed != nil {
			a.opts.OnShed(now, a.opts.OverloadShed)
		}
		if err := a.bind.RemoveTasks(a.opts.OverloadShed); err != nil {
			d.Err = err.Error()
		} else {
			a.shedDone = true
			a.lastAct = now
			a.actuated = true
			d.Shed = a.opts.OverloadShed
			a.sheds.Add(int64(len(a.opts.OverloadShed)))
			for _, id := range a.opts.OverloadShed {
				if t := a.tasks[id]; t != nil {
					t.removed = true
				}
			}
		}
	}
	a.record(d)
}

// record appends to the bounded decision journal.
func (a *Autopilot) record(d Decision) {
	a.journalMu.Lock()
	defer a.journalMu.Unlock()
	if len(a.journal) >= a.opts.JournalCap {
		copy(a.journal, a.journal[1:])
		a.journal = a.journal[:len(a.journal)-1]
	}
	a.journal = append(a.journal, d)
}

// Journal returns a copy of the decision journal, oldest first.
func (a *Autopilot) Journal() []Decision {
	a.journalMu.Lock()
	defer a.journalMu.Unlock()
	out := make([]Decision, len(a.journal))
	copy(out, a.journal)
	return out
}

// Stats snapshots the controller's counters. Safe from any goroutine.
func (a *Autopilot) Stats() Stats {
	s := Stats{
		Events:             a.events.Load(),
		Ticks:              a.ticks.Load(),
		ShiftAlarms:        a.shiftAlarms.Load(),
		RegimeChanges:      a.regimeChanges.Load(),
		Actuations:         a.actuations.Load(),
		ActuationErrors:    a.actuationErrors.Load(),
		Sheds:              a.sheds.Load(),
		SuppressedDwell:    a.suppressedDwell.Load(),
		SuppressedCooldown: a.suppressedCooldown.Load(),
		SuppressedCap:      a.suppressedCap.Load(),
		Regime:             Regime(a.curRegime.Load()).String(),
	}
	if a.stream != nil {
		s.WatchDropped = a.stream.Dropped()
	}
	return s
}
