package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sched"
)

// effectorModel drives one Effector with a lossy, duplicating transport and
// checks its contract after every step.
type effectorModel struct {
	t     *testing.T
	e     Effector
	kind  sched.TaskKind
	epoch int64
	cfgs  []Config // the configuration of each epoch

	now     time.Duration
	nextJob int64
	settled map[int64]int
	// inFlight are requests the transport still carries; answered keeps the
	// ones already delivered once, for duplicates.
	inFlight []request
	answered []request
	// holds are the hold-rule requests the effector has not yet seen
	// answered or lost.
	holds map[int64]bool
}

type request struct {
	job   int64
	epoch int64
}

func (m *effectorModel) apply(acts []Action) {
	for _, a := range acts {
		switch a.Kind {
		case ActRelease, ActSkip:
			m.settled[a.Job]++
			if m.settled[a.Job] > 1 {
				m.t.Fatalf("job %d settled %d times", a.Job, m.settled[a.Job])
			}
		case ActRequest:
			m.inFlight = append(m.inFlight, request{job: a.Job, epoch: m.epoch})
			if m.e.requested && m.e.reqJob == a.Job {
				m.holds[a.Job] = true
				if len(m.holds) > 1 {
					m.t.Fatalf("%d outstanding requests for an undecided task: %v", len(m.holds), m.holds)
				}
			}
		}
	}
}

func (m *effectorModel) arrive() {
	a := m.e.Arrive(m.nextJob, m.now)
	m.nextJob++
	m.apply([]Action{a})
}

// deliver answers request r under epoch decEpoch, which is r's epoch or a
// later one (the AC deferred it across a reconfiguration).
func (m *effectorModel) deliver(r request, decEpoch int64, accept bool) {
	_, cache := m.cfgs[decEpoch].perTask(m.kind)
	d := Decision{Accept: accept}
	if accept {
		d.Placement = []sched.PlacedStage{{Proc: int(decEpoch)}}
	}
	ok0, p0 := m.cachedState()
	delete(m.holds, r.job)
	m.apply(m.e.Decided(r.job, d, cache, decEpoch, nil))
	if decEpoch != m.epoch {
		if ok1, p1 := m.cachedState(); ok1 != ok0 || p1 != p0 {
			m.t.Fatalf("a decision of epoch %d became policy in epoch %d", decEpoch, m.epoch)
		}
	}
	if ok, proc := m.cachedState(); ok && proc >= 0 && int64(proc) != m.epoch {
		m.t.Fatalf("cached placement from epoch %d in epoch %d", proc, m.epoch)
	}
}

func (m *effectorModel) cachedState() (bool, int) {
	a, ok := m.e.Cached()
	if a.Kind != ActRelease {
		return ok, -1
	}
	return ok, a.Placement[0].Proc
}

func (m *effectorModel) step(rng *rand.Rand) {
	m.now += time.Duration(rng.Intn(3)) * time.Millisecond
	switch op := rng.Intn(10); {
	case op < 4:
		m.arrive()
	case op < 6 && len(m.inFlight) > 0:
		i := rng.Intn(len(m.inFlight))
		r := m.inFlight[i]
		m.inFlight = append(m.inFlight[:i], m.inFlight[i+1:]...)
		m.answered = append(m.answered, r)
		dec := r.epoch
		if rng.Intn(3) == 0 {
			dec = r.epoch + rng.Int63n(m.epoch-r.epoch+1)
		}
		m.deliver(r, dec, rng.Intn(3) > 0)
	case op == 6 && len(m.answered) > 0:
		// A duplicate of a decision already delivered.
		r := m.answered[rng.Intn(len(m.answered))]
		m.deliver(r, r.epoch, rng.Intn(2) == 0)
	case op == 7 && len(m.inFlight) > 0:
		// A lost request: its push failed, or the transport dropped it
		// silently and only the expiry sweep will notice.
		i := rng.Intn(len(m.inFlight))
		r := m.inFlight[i]
		m.inFlight = append(m.inFlight[:i], m.inFlight[i+1:]...)
		if rng.Intn(2) == 0 {
			delete(m.holds, r.job)
			m.apply(m.e.Lost(r.job, nil))
		}
	case op == 8:
		m.expire(m.now - 5*time.Millisecond)
	case op == 9:
		m.epoch++
		m.cfgs = append(m.cfgs, AllCombinations()[rng.Intn(15)])
		m.e.Epoch(m.epoch, m.cfgs[m.epoch], m.kind)
		if ok, _ := m.cachedState(); ok {
			m.t.Fatal("a cached decision survived an epoch change")
		}
	}
}

func (m *effectorModel) expire(horizon time.Duration) {
	if m.e.requested && m.e.waiting[m.e.find(m.e.reqJob, false)].arrival < horizon {
		delete(m.holds, m.e.reqJob)
	}
	m.apply(m.e.Expire(horizon, nil))
}

// TestEffectorSettlesEveryArrivalOnce drives the effector state machine
// through random arrive/decide/lose/duplicate/epoch sequences, for every
// strategy combination and both task kinds. Every arrival settles at most
// once at every step and exactly once after the drain; an undecided task
// never has two hold-rule requests outstanding; and no decision made under
// another epoch becomes the task's cached policy.
func TestEffectorSettlesEveryArrivalOnce(t *testing.T) {
	for ci, cfg := range AllCombinations() {
		for _, kind := range []sched.TaskKind{sched.Periodic, sched.Aperiodic} {
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
				m := &effectorModel{t: t, kind: kind, cfgs: []Config{cfg},
					settled: map[int64]int{}, holds: map[int64]bool{}}
				m.e.Epoch(0, cfg, kind)
				for i := 0; i < 300; i++ {
					m.step(rng)
				}
				// Drain: answer what is still in flight, then expire the rest.
				for len(m.inFlight) > 0 {
					r := m.inFlight[0]
					m.inFlight = m.inFlight[1:]
					m.deliver(r, m.epoch, true)
				}
				m.expire(m.now + time.Second)
				if n := m.e.Waiting(); n != 0 {
					t.Fatalf("%s %v seed %d: %d jobs still waiting after the drain", cfg, kind, seed, n)
				}
				for job := int64(0); job < m.nextJob; job++ {
					if m.settled[job] != 1 {
						t.Fatalf("%s %v seed %d: job %d settled %d times", cfg, kind, seed, job, m.settled[job])
					}
				}
			}
		}
	}
}

// TestEffectorHoldRule pins the hold rule on a per-task periodic task: jobs
// arriving before the first decision wait behind one request and settle
// with it; the decision is then cached, and a decision made under an
// older epoch settles its own job only, re-requesting for the jobs held
// behind it.
func TestEffectorHoldRule(t *testing.T) {
	var e Effector
	tnn := Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}
	e.Epoch(0, tnn, sched.Periodic)
	kinds := func(acts ...Action) (out []ActionKind) {
		for _, a := range acts {
			out = append(out, a.Kind)
		}
		return out
	}
	if got := kinds(e.Arrive(0, 0), e.Arrive(1, 1), e.Arrive(2, 2)); !equalKinds(got, ActRequest, ActHold, ActHold) {
		t.Fatalf("three arrivals before the decision: %v", got)
	}
	place := []sched.PlacedStage{{Proc: 1}}
	if got := kinds(e.Decided(0, Decision{Accept: true, Placement: place}, true, 0, nil)...); !equalKinds(got, ActRelease, ActRelease, ActRelease) {
		t.Fatalf("the first decision: %v", got)
	}
	if a := e.Arrive(3, 3); a.Kind != ActRelease || a.Placement[0].Proc != 1 {
		t.Fatalf("a cached arrival: %+v", a)
	}

	e.Epoch(1, tnn, sched.Periodic)
	e.Arrive(4, 4)
	e.Arrive(5, 5)
	got := e.Decided(4, Decision{Accept: true, Placement: place}, true, 0, nil)
	if !equalKinds(kinds(got...), ActRelease, ActRequest) || got[0].Job != 4 || got[1].Job != 5 {
		t.Fatalf("a stale decision: %+v", got)
	}
	if _, ok := e.Cached(); ok {
		t.Fatal("a stale decision was cached")
	}
}

func equalKinds(got []ActionKind, want ...ActionKind) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
