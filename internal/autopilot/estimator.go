package autopilot

import (
	"math"
	"sync/atomic"
	"time"
)

// Sliding-window estimators for the autopilot's sensor plane. Everything on
// the per-event ingest path is a time-bucketed ring of atomic counters:
// writes are a single atomic add (no locks, no allocations), and readers sum
// the live buckets. The ring is single-writer — ingest and tick both run on
// the driver goroutine (or the sim engine thread) — so bucket advancement
// needs no CAS loop; atomics make the counters safe for concurrent Stats()
// readers.

// ring is a sliding-window event counter: len(buckets) buckets of width
// `width` each, covering a window of width*len(buckets). Stale buckets are
// zeroed lazily as time advances past them.
type ring struct {
	width   time.Duration
	buckets []atomic.Int64
	// last is the absolute index (now/width) of the most recently written
	// bucket. Writer-owned; never read outside the driver goroutine.
	last int64
}

func newRing(window time.Duration, buckets int) *ring {
	if buckets < 1 {
		buckets = 1
	}
	w := window / time.Duration(buckets)
	if w <= 0 {
		w = time.Millisecond
	}
	return &ring{width: w, buckets: make([]atomic.Int64, buckets)}
}

// advance rotates the ring forward to cover `now`, zeroing every bucket the
// window slid past. Monotonically non-decreasing: events that arrive with an
// older timestamp land in the current bucket.
//
//rtmw:noalloc
func (r *ring) advance(now time.Duration) {
	idx := int64(now / r.width)
	if idx <= r.last {
		return
	}
	n := int64(len(r.buckets))
	steps := idx - r.last
	if steps > n {
		steps = n
	}
	for i := int64(1); i <= steps; i++ {
		r.buckets[(r.last+i)%n].Store(0)
	}
	r.last = idx
}

// add counts one event at `now`. Hot path: one divide, at most a short
// zeroing loop on bucket rollover, one atomic add.
//
//rtmw:noalloc
func (r *ring) add(now time.Duration) {
	r.advance(now)
	r.buckets[r.last%int64(len(r.buckets))].Add(1)
}

// sum returns the event count across the live window.
func (r *ring) sum() int64 {
	var total int64
	for i := range r.buckets {
		total += r.buckets[i].Load()
	}
	return total
}

// window is the ring's total span.
func (r *ring) window() time.Duration {
	return r.width * time.Duration(len(r.buckets))
}

// rate converts the windowed count to events per second.
func (r *ring) rate() float64 {
	return float64(r.sum()) / r.window().Seconds()
}

// taskEst estimates one task's arrival process: a windowed rate ring plus a
// two-state MMPP (Markov-modulated Poisson) fit in the spirit of the HMM
// validation literature — an EWMA base-state rate, a burst state entered
// when the observed rate exceeds burstEnter x base and left when it falls
// under burstExit x base. The hysteresis gap (enter > exit) keeps the state
// from chattering on rates that hover near a single threshold. All fields
// past the ring are tick-path only.
type taskEst struct {
	id       string
	arrivals *ring
	baseRate float64
	inBurst  bool
	removed  bool
}

// observe folds the current windowed rate into the MMPP fit and returns
// whether the task is in its burst state. The base level is floored at
// minRateFloor so a near-idle task's first few arrivals don't read as an
// infinite ratio.
func (t *taskEst) observe(burstEnter, burstExit float64) bool {
	r := t.arrivals.rate()
	if t.inBurst {
		if r < burstExit*math.Max(t.baseRate, minRateFloor) {
			t.inBurst = false
		}
		return t.inBurst
	}
	if t.baseRate == 0 {
		t.baseRate = r
	} else {
		t.baseRate += ewmaAlpha * (r - t.baseRate)
	}
	t.inBurst = r > burstEnter*math.Max(t.baseRate, minRateFloor)
	return t.inBurst
}
