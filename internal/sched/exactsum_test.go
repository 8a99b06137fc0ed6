package sched

import (
	"math/rand"
	"testing"
	"time"
)

// TestAdmissionKeepsSumsExact holds every signature group's sum to the sum
// of its terms recomputed from the utilizations, and the violated counter to
// a recount, after every step of random operation sequences: admissions
// through TestAndAddKey (the commit moves the sums), forced AddJobs that
// break conditions, expiries, idle resets, relocations and withdrawals, with
// zero-utilization stages among them so jobs join groups without moving a
// term. The sequences must reach admissions whose test sums a group, and
// violated states.
func TestAdmissionKeepsSumsExact(t *testing.T) {
	const procs = 4
	summedTests, violatedSteps := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger(procs)
		var live []JobKey
		placement := func() []PlacedStage {
			pl := make([]PlacedStage, 1+rng.Intn(3))
			for s := range pl {
				u := rng.Float64() * 0.3
				if rng.Intn(6) == 0 {
					u = 0
				}
				pl[s] = PlacedStage{Stage: s, Proc: rng.Intn(procs), Util: u}
			}
			return pl
		}
		for step := 0; step < 300; step++ {
			pick := func() (JobKey, bool) {
				if len(live) == 0 {
					return JobKey{}, false
				}
				return live[rng.Intn(len(live))], true
			}
			k := JobKey{Task: TaskRef(rng.Intn(6)), Job: int64(step)}
			switch rng.Intn(8) {
			case 0, 1, 2:
				pl := placement()
				if l.Admissible(pl) {
					for _, g := range allGroups(l) {
						if l.group(g).scanned == l.scan {
							summedTests++
							break
						}
					}
				}
				if ok, err := l.TestAndAddKey(k, Aperiodic, pl, false, time.Hour); err != nil {
					t.Fatal(err)
				} else if ok {
					live = append(live, k)
				}
			case 3:
				if rng.Intn(4) == 0 {
					if err := l.AddJob(k, Aperiodic, placement(), false, time.Hour); err != nil {
						t.Fatal(err)
					}
					live = append(live, k)
				}
			case 4:
				if k, ok := pick(); ok {
					l.ExpireJob(k)
				}
			case 5:
				if k, ok := pick(); ok {
					l.ResetReported(Entry[JobKey]{Ref: k, Stage: rng.Intn(3), Proc: rng.Intn(procs)})
				}
			case 6:
				if k, ok := pick(); ok {
					l.Relocate(k, placement())
				}
			case 7:
				if k, ok := pick(); ok {
					l.WithdrawKey(k)
				}
			}
			violated := 0
			for _, g := range allGroups(l) {
				var fresh int64
				for _, e := range l.groupSig(g) {
					fresh += int64(e.count) * termUnits(l.util[e.proc])
				}
				if s := l.sums[g]; s.cachedSum != fresh {
					t.Fatalf("seed %d step %d: group %q sum %d units, fresh sum %d", seed, step, sigString(l.groupSig(g)), s.cachedSum, fresh)
				}
				if l.sums[g].counted > 0 && fresh > unitsPerOne {
					violated++
				}
			}
			if l.violated != violated {
				t.Fatalf("seed %d step %d: violated = %d, recount %d", seed, step, l.violated, violated)
			}
			if violated > 0 {
				violatedSteps++
			}
		}
	}
	if summedTests == 0 || violatedSteps == 0 {
		t.Errorf("%d accepting tests summed a group, %d steps were violated: want both", summedTests, violatedSteps)
	}
}

// TestAdmissionRefusalAppliesNothing holds TestAndAddKey's own refusals — a
// job already in the ledger, a negative task ref — to (false, err) and an
// untouched ledger, utilizations and group sums alike, though the test
// itself passed.
func TestAdmissionRefusalAppliesNothing(t *testing.T) {
	l := NewLedger(2)
	pl := place(PlacedStage{Stage: 0, Proc: 0, Util: 0.1}, PlacedStage{Stage: 1, Proc: 1, Util: 0.2})
	if ok, err := l.TestAndAddKey(JobKey{Task: 3, Job: 3}, Aperiodic, pl, false, time.Hour); !ok || err != nil {
		t.Fatalf("first admission = %v, %v", ok, err)
	}
	sums := func() map[int32]int64 {
		out := make(map[int32]int64)
		for _, g := range allGroups(l) {
			out[g] = l.sums[g].cachedSum
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
				t.Errorf("after %s: group %q sum %d units, was %d", tc.key, sigString(l.groupSig(g)), s, cached[g])
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
