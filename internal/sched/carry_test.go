package sched

import (
	"math"
	"testing"
	"time"
)

// TestAdmissionCarriesProvedBounds pins what an admission leaves on the
// groups its test looked at. The candidate grows processor 0 a little and
// the spare processor 2 a lot: the growth the bound allows for is the sum of
// both, so {0,1} (0.70, summed to 0.71 under the candidate) cannot be passed
// on its bound and is summed, while {0} (0.16) is passed on it. The commit
// must give {0,1} exactly its fresh sum and {0} exactly the bound the test
// proved plus carrySlack, without making anything violated.
func TestAdmissionCarriesProvedBounds(t *testing.T) {
	l := NewLedger(3)
	add := func(task TaskRef, pl []PlacedStage) {
		t.Helper()
		if err := l.AddJob(JobKey{Task: task}, Aperiodic, pl, false, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	add(0, place(PlacedStage{Stage: 0, Proc: 0, Util: 0.1}, PlacedStage{Stage: 1, Proc: 1, Util: 0.4}))
	add(1, place(PlacedStage{Proc: 0, Util: 0.05}))
	wide, narrow := groupOf(l, "0:1,1:1"), groupOf(l, "0:1")
	before := narrow.cachedSum

	cand := place(PlacedStage{Stage: 0, Proc: 0, Util: 0.01}, PlacedStage{Stage: 1, Proc: 2, Util: 0.3})
	if !l.Admissible(cand) {
		t.Fatal("candidate rejected")
	}
	grow := l.candGrow
	if wide.cachedSum+wide.maxCount*grow <= 1-boundMargin || narrow.cachedSum+narrow.maxCount*grow > 1-boundMargin {
		t.Fatalf("bounds %g and %g under growth %g: want {0,1} past 1 − boundMargin and {0} within it",
			wide.cachedSum+grow, narrow.cachedSum+grow, grow)
	}
	ok, summed, carried := admitChecked(t, l, JobKey{Task: 2}, Aperiodic, cand, false, time.Hour)
	if !ok || summed != 1 || carried != 1 {
		t.Fatalf("admission = %v, summed %d groups and carried %d; want true, 1, 1", ok, summed, carried)
	}
	if wide.cachedSum != l.freshSum(wide) {
		t.Errorf("{0,1} cached %g, fresh sum %g", wide.cachedSum, l.freshSum(wide))
	}
	if want := before + narrow.maxCount*grow + carrySlack; math.Float64bits(narrow.cachedSum) != math.Float64bits(want) {
		t.Errorf("{0} cached %g, want the carried bound %g", narrow.cachedSum, want)
	}
	if narrow.cachedSum <= l.freshSum(narrow) {
		t.Errorf("{0} cached %g, not above its fresh sum %g: the test does not reach a stale bound", narrow.cachedSum, l.freshSum(narrow))
	}
	if l.violated != 0 {
		t.Errorf("violated = %d after an admission, want 0", l.violated)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionRatchetEndsInAFreshSum drives the carried bound's one way of
// drifting: admit and expire jobs on one processor pair. Each admission
// raises the pair's bound by the candidate's growth, and each expiry leaves
// it there (a shrinking processor refreshes nothing while nothing is
// violated), so the bound climbs while the fresh sum stays put. Once bound
// plus growth passes 1 − boundMargin, the next test must sum the group, and
// that admission must leave the group at its fresh sum.
func TestAdmissionRatchetEndsInAFreshSum(t *testing.T) {
	l := NewLedger(2)
	pair := place(PlacedStage{Stage: 0, Proc: 0, Util: 0.1}, PlacedStage{Stage: 1, Proc: 1, Util: 0.1})
	if err := l.AddJob(JobKey{Task: 0}, Aperiodic, pair, false, time.Hour); err != nil {
		t.Fatal(err)
	}
	g := groupOf(l, "0:1,1:1")
	carries := 0
	for cycle := 0; ; cycle++ {
		if cycle == 20 {
			t.Fatalf("the bound never passed 1 − boundMargin in %d cycles", cycle)
		}
		if !l.Admissible(pair) {
			t.Fatalf("cycle %d: candidate rejected", cycle)
		}
		bound := g.cachedSum + g.maxCount*l.candGrow
		stale := g.cachedSum > l.freshSum(g)
		k := JobKey{Task: 1, Job: int64(cycle)}
		ok, summed, carried := admitChecked(t, l, k, Aperiodic, pair, false, time.Hour)
		if !ok {
			t.Fatalf("cycle %d: admission refused", cycle)
		}
		if bound <= 1-boundMargin {
			if carried != 1 || summed != 0 {
				t.Fatalf("cycle %d: bound %g: summed %d, carried %d; want the group carried", cycle, bound, summed, carried)
			}
			carries++
			l.ExpireJob(k)
			if err := l.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if carries < 2 || !stale {
			t.Fatalf("cycle %d: %d carries before the bound passed, group stale %v: want a ratchet of at least two", cycle, carries, stale)
		}
		if summed != 1 || carried != 0 || g.cachedSum != l.freshSum(g) {
			t.Fatalf("cycle %d: bound %g: summed %d, carried %d, cached %g against fresh %g; want the fresh sum",
				cycle, bound, summed, carried, g.cachedSum, l.freshSum(g))
		}
		break
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionRefusalAppliesNothing holds TestAndAddKey's own refusals — a
// job already in the ledger, a negative task ref — to what they were before
// the commit kept the test's bounds: (false, err) and an untouched ledger,
// utilizations and cached sums alike, though the test itself passed.
func TestAdmissionRefusalAppliesNothing(t *testing.T) {
	l := NewLedger(2)
	pl := place(PlacedStage{Stage: 0, Proc: 0, Util: 0.1}, PlacedStage{Stage: 1, Proc: 1, Util: 0.2})
	if ok, err := l.TestAndAddKey(JobKey{Task: 3, Job: 3}, Aperiodic, pl, false, time.Hour); !ok || err != nil {
		t.Fatalf("first admission = %v, %v", ok, err)
	}
	sums := func() map[*sigGroup]float64 {
		out := make(map[*sigGroup]float64)
		for _, g := range allGroups(l) {
			out[g] = g.cachedSum
		}
		return out
	}
	utils, cached := utilBits(l), sums()
	for _, tc := range []struct {
		key  JobKey
		want string
	}{
		{JobKey{Task: 3, Job: 3}, "sched: job 3#3 already in ledger"},
		{JobKey{Task: -1, Job: 0}, "sched: job -1#0 has a negative task ref"},
	} {
		if !l.Admissible(pl) {
			t.Fatal("the test itself rejects the placement")
		}
		if ok, err := l.TestAndAddKey(tc.key, Aperiodic, pl, false, time.Hour); ok || err == nil || err.Error() != tc.want {
			t.Errorf("TestAndAddKey(%s) = %v, %v; want false, %q", tc.key, ok, err, tc.want)
		}
		for p, b := range utilBits(l) {
			if b != utils[p] {
				t.Errorf("after %s: processor %d moved", tc.key, p)
			}
		}
		for g, s := range sums() {
			if s != cached[g] {
				t.Errorf("after %s: group %q cached %g, was %g", tc.key, sigString(g.procs, g.counts), s, cached[g])
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
