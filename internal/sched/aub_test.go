package sched

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestAUBTerm(t *testing.T) {
	const one = unitsPerOne
	tests := []struct {
		n    int64
		want int64
	}{
		{n: 0, want: 0},
		{n: -one / 2, want: 0},
		// f(1/2) = 3/4 exactly; one unit above zero rounds up to two.
		{n: one / 2, want: 3 * one / 4},
		{n: 1, want: 2},
		{n: one, want: termCap},
		{n: 3 * one / 2, want: termCap},
	}
	for _, tt := range tests {
		if got := termUnits(tt.n); got != tt.want {
			t.Errorf("termUnits(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestAUBTermMonotonic(t *testing.T) {
	// f' ≥ 1 on [0, 1), so the term grows by at least a unit per unit of
	// utilization: strictly increasing until it reaches the cap.
	f := func(a, b uint64) bool {
		x, y := int64(a%(unitsPerOne+2)), int64(b%(unitsPerOne+2))
		if x > y {
			x, y = y, x
		}
		tx, ty := termUnits(x), termUnits(y)
		return x == y || tx < ty || tx == termCap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzTermUnits holds termUnits to the exact ceiling of
// n(2^41 − n) / (2(2^40 − n)), computed with math/big, wherever that is at
// most termCap, and to termCap elsewhere (n ≥ 2^40 included; a negative n,
// which no ledger holds, reads 0), and to termUnits(n) ≤ termUnits(n+1).
// The seeds are the ends of the range, the cap crossover and random counts.
func FuzzTermUnits(f *testing.F) {
	const one = unitsPerOne
	// cross is the smallest count whose term reaches the cap.
	cross := sort.Search(one, func(n int) bool { return termUnits(int64(n)) == termCap })
	for _, n := range []int64{0, 1, one - 1, one, one + 1, int64(cross) - 1, int64(cross), int64(cross) + 1} {
		f.Add(n)
	}
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		f.Add(rng.Int63n(one))
	}
	f.Fuzz(func(t *testing.T, n int64) {
		got := termUnits(n)
		want := int64(termCap)
		switch {
		case n <= 0:
			want = 0
		case n < one:
			num := new(big.Int).Mul(big.NewInt(n), big.NewInt(2*one-n))
			den := big.NewInt(2 * (one - n))
			q, r := new(big.Int).QuoRem(num, den, new(big.Int))
			if r.Sign() != 0 {
				q.Add(q, big.NewInt(1))
			}
			if q.Cmp(big.NewInt(termCap)) <= 0 {
				want = q.Int64()
			}
		}
		if got != want {
			t.Fatalf("termUnits(%d) = %d, want %d", n, got, want)
		}
		if n < math.MaxInt64 && termUnits(n+1) < got {
			t.Fatalf("termUnits(%d) = %d > termUnits(%d) = %d", n, got, n+1, termUnits(n+1))
		}
	})
}

// pathFeasible reports whether a task visiting processors with the given
// synthetic utilizations satisfies condition (1), Σ f(u) ≤ 1, in the
// ledger's units: each utilization rounded up to the grid as toUnits does,
// each term by termUnits.
func pathFeasible(utils []float64) bool {
	var sum int64
	for _, u := range utils {
		n, _ := toUnits(min(u, 1))
		sum += termUnits(n)
	}
	return sum <= unitsPerOne
}

func TestPathFeasible(t *testing.T) {
	tests := []struct {
		name  string
		utils []float64
		want  bool
	}{
		{name: "empty", utils: nil, want: true},
		{name: "one half-loaded stage", utils: []float64{0.5}, want: true},
		{name: "two half-loaded stages", utils: []float64{0.5, 0.5}, want: false},
		{name: "full processor", utils: []float64{1.0}, want: false},
		{name: "many light stages", utils: []float64{0.1, 0.1, 0.1, 0.1}, want: true},
		// The single-stage AUB bound is 2 - sqrt(2) ≈ 0.5858.
		{name: "single just-feasible", utils: []float64{0.585}, want: true},
		{name: "single just-infeasible", utils: []float64{0.587}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := pathFeasible(tt.utils); got != tt.want {
				t.Errorf("pathFeasible(%v) = %v, want %v", tt.utils, got, tt.want)
			}
		})
	}
}

func place(stages ...PlacedStage) []PlacedStage { return stages }

// allGroups lists every registered signature group, down each hash chain.
func allGroups(l *Ledger) []int32 {
	var out []int32
	for _, head := range l.groups {
		for g := head; g != 0; g = l.group(g).next {
			out = append(out, g)
		}
	}
	return out
}

// groupOf returns the registered group whose signature renders as sig.
func groupOf(l *Ledger, sig string) int32 {
	for _, g := range allGroups(l) {
		if sigString(l.groupSig(g)) == sig {
			return g
		}
	}
	return 0
}

func TestLedgerAddAndExpire(t *testing.T) {
	l := NewLedger(3)
	ref := JobKey{Task: 11, Job: 0}
	pl := place(
		PlacedStage{Stage: 0, Proc: 0, Util: 0.2},
		PlacedStage{Stage: 1, Proc: 2, Util: 0.1},
	)
	if err := l.AddJob(ref, Aperiodic, pl, false, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := l.Util(0); got != onGrid(0.2) {
		t.Errorf("Util(0) = %g, want 0.2", got)
	}
	if got := l.Util(2); got != onGrid(0.1) {
		t.Errorf("Util(2) = %g, want 0.1", got)
	}
	if got := l.Util(1); got != 0 {
		t.Errorf("Util(1) = %g, want 0", got)
	}
	// Double admission must fail.
	if err := l.AddJob(ref, Aperiodic, pl, false, time.Second); err == nil {
		t.Error("AddJob accepted duplicate job")
	}
	if n := l.ExpireJob(ref); n != 2 {
		t.Errorf("ExpireJob removed %d entries, want 2", n)
	}
	for p := 0; p < 3; p++ {
		if got := l.Util(p); got != 0 {
			t.Errorf("after expiry Util(%d) = %g, want 0", p, got)
		}
	}
	// Expiring again is a no-op.
	if n := l.ExpireJob(ref); n != 0 {
		t.Errorf("second ExpireJob removed %d entries, want 0", n)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestLedgerAddJobErrors(t *testing.T) {
	l := NewLedger(2)
	bad := place(PlacedStage{Stage: 0, Proc: 5, Util: 0.1})
	if err := l.AddJob(JobKey{Task: 12, Job: 0}, Periodic, bad, false, time.Second); err == nil {
		t.Error("AddJob accepted out-of-range processor")
	}
	neg := place(PlacedStage{Stage: 0, Proc: 0, Util: -0.1})
	if err := l.AddJob(JobKey{Task: 13, Job: 0}, Periodic, neg, false, time.Second); err == nil {
		t.Error("AddJob accepted negative utilization")
	}
	if l.Admissible(neg) {
		t.Error("Admissible accepted negative utilization")
	}
	if NewShardedLedger(2, 2).Admissible(neg) {
		t.Error("sharded Admissible accepted negative utilization")
	}
	ok := place(PlacedStage{Stage: 0, Proc: 0, Util: 0.1})
	if err := l.AddJob(JobKey{Task: -1, Job: 0}, Periodic, ok, false, time.Second); err == nil {
		t.Error("AddJob accepted a negative task ref")
	}
	if got := l.ActiveJobs(); len(got) != 0 {
		t.Errorf("rejected jobs left records %v", got)
	}
}

func TestLedgerPermanentReservation(t *testing.T) {
	l := NewLedger(2)
	ref := JobKey{Task: 9, Job: 0}
	pl := place(PlacedStage{Stage: 0, Proc: 0, Util: 0.3})
	if err := l.AddJob(ref, Periodic, pl, true, 0); err != nil {
		t.Fatal(err)
	}
	// Expiry must not touch a permanent per-task reservation.
	if n := l.ExpireJob(ref); n != 0 {
		t.Errorf("ExpireJob removed %d permanent entries", n)
	}
	if got := l.Util(0); got != onGrid(0.3) {
		t.Errorf("Util(0) = %g after expiry of permanent entry", got)
	}
	// Idle resetting must not touch it either, even when completed.
	l.MarkComplete(ref, 0)
	if l.ResetEntry(Entry[JobKey]{Ref: ref, Stage: 0, Proc: 0}) {
		t.Error("ResetEntry removed a permanent reservation")
	}
	// RemoveTask withdraws it.
	if n := l.RemoveTask(9); n != 1 {
		t.Errorf("RemoveTask removed %d entries, want 1", n)
	}
	if got := l.Util(0); got != 0 {
		t.Errorf("Util(0) = %g after RemoveTask", got)
	}
}

func TestLedgerIdleReset(t *testing.T) {
	l := NewLedger(2)
	ap := JobKey{Task: 1, Job: 0}
	per := JobKey{Task: 9, Job: 3}
	if err := l.AddJob(ap, Aperiodic, place(PlacedStage{Stage: 0, Proc: 0, Util: 0.2}), false, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := l.AddJob(per, Periodic, place(PlacedStage{Stage: 0, Proc: 0, Util: 0.25}), false, time.Second); err != nil {
		t.Fatal(err)
	}

	// Nothing completed yet: nothing to reset.
	if refs := l.CompletedOn(0, true); len(refs) != 0 {
		t.Fatalf("CompletedOn before completion = %v", refs)
	}
	if l.ResetEntry(Entry[JobKey]{Ref: ap, Stage: 0, Proc: 0}) {
		t.Error("ResetEntry succeeded for uncompleted subjob")
	}

	l.MarkComplete(ap, 0)
	l.MarkComplete(per, 0)

	// IR per task: aperiodic subjobs only.
	refs := l.CompletedOn(0, false)
	if len(refs) != 1 || refs[0].Ref != ap {
		t.Fatalf("CompletedOn(aperiodic only) = %v, want [%v]", refs, ap)
	}
	// IR per job: both.
	refs = l.CompletedOn(0, true)
	if len(refs) != 2 {
		t.Fatalf("CompletedOn(both) = %v, want 2 entries", refs)
	}

	if !l.ResetEntry(Entry[JobKey]{Ref: ap, Stage: 0, Proc: 0}) {
		t.Error("ResetEntry failed for completed aperiodic subjob")
	}
	if got := l.Util(0); got != onGrid(0.25) {
		t.Errorf("Util(0) = %g after aperiodic reset, want 0.25", got)
	}
	// Double reset is a no-op.
	if l.ResetEntry(Entry[JobKey]{Ref: ap, Stage: 0, Proc: 0}) {
		t.Error("second ResetEntry succeeded")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestLedgerAdmissible(t *testing.T) {
	l := NewLedger(2)
	// Background in-flight job visiting both processors at 0.3 each:
	// f(0.3) + f(0.3) = 0.7286 ≤ 1, feasible.
	base := place(
		PlacedStage{Stage: 0, Proc: 0, Util: 0.3},
		PlacedStage{Stage: 1, Proc: 1, Util: 0.3},
	)
	if !l.Admissible(base) {
		t.Fatal("empty ledger rejected feasible two-stage job")
	}
	if err := l.AddJob(JobKey{Task: 3, Job: 0}, Periodic, base, false, time.Second); err != nil {
		t.Fatal(err)
	}

	// Light candidate on processor 0: own condition f(0.35) = 0.444 and
	// background condition f(0.35) + f(0.3) = 0.809 both pass.
	cand := place(PlacedStage{Stage: 0, Proc: 0, Util: 0.05})
	if !l.Admissible(cand) {
		t.Error("feasible candidate rejected")
	}

	// A candidate that would push processor 0 to 1.0 must be rejected.
	heavy := place(PlacedStage{Stage: 0, Proc: 0, Util: 0.7})
	if l.Admissible(heavy) {
		t.Error("candidate saturating processor 0 admitted")
	}

	// A candidate whose own condition passes but which breaks the in-flight
	// background job's condition must be rejected: candidate on processor 1
	// at 0.25 gives own f(0.55) = 0.886 ≤ 1, but background becomes
	// f(0.3) + f(0.55) = 1.25 > 1.
	breaker := place(PlacedStage{Stage: 0, Proc: 1, Util: 0.25})
	if l.Admissible(breaker) {
		t.Error("candidate breaking in-flight job condition admitted")
	}
}

func TestLedgerAdmissibleSkipsCompletedJobs(t *testing.T) {
	l := NewLedger(2)
	done := JobKey{Task: 5, Job: 0}
	if err := l.AddJob(done, Aperiodic, place(
		PlacedStage{Stage: 0, Proc: 0, Util: 0.3},
		PlacedStage{Stage: 1, Proc: 1, Util: 0.3},
	), false, time.Second); err != nil {
		t.Fatal(err)
	}
	l.MarkComplete(done, 0)
	l.MarkComplete(done, 1)
	// The fully completed job cannot miss its deadline anymore, so only the
	// candidate's own condition matters: candidate on processor 1 at 0.2
	// gives own f(0.5) = 0.75 ≤ 1, while the completed job's hypothetical
	// condition f(0.3) + f(0.5) = 1.11 would have failed.
	cand := place(PlacedStage{Stage: 0, Proc: 1, Util: 0.2})
	if !l.Admissible(cand) {
		t.Error("candidate rejected due to already-completed job")
	}
}

// TestLedgerRefusesOutOfRangeUtil holds every entry point to C/D in [0, 1]:
// a placement with a NaN, infinite, negative or above-1 stage is refused by
// AddJob, TestAndAddKey, Relocate, Admissible and the reference, and leaves
// the ledger as it was.
func TestLedgerRefusesOutOfRangeUtil(t *testing.T) {
	for _, u := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.25, math.Nextafter(1, 2), 5} {
		l := NewLedger(2)
		held := JobKey{Task: 0, Job: 0}
		if err := l.AddJob(held, Periodic, place(PlacedStage{Stage: 0, Proc: 0, Util: 0.2}), true, 0); err != nil {
			t.Fatal(err)
		}
		utils := l.Utils()
		bad := place(PlacedStage{Stage: 0, Proc: 1, Util: 0.1}, PlacedStage{Stage: 1, Proc: 0, Util: u})
		if err := l.AddJob(JobKey{Task: 1, Job: 0}, Aperiodic, bad, false, time.Hour); err == nil {
			t.Errorf("C/D %g: AddJob accepted it", u)
		}
		if ok, err := l.TestAndAddKey(JobKey{Task: 1, Job: 1}, Aperiodic, bad, false, time.Hour); ok || err == nil {
			t.Errorf("C/D %g: TestAndAddKey = %v, %v; want a refusal with an error", u, ok, err)
		}
		if l.Admissible(bad) || l.referenceAdmissible(bad) {
			t.Errorf("C/D %g: admissible", u)
		}
		if err := l.Relocate(held, place(PlacedStage{Stage: 0, Proc: 1, Util: u})); err == nil {
			t.Errorf("C/D %g: Relocate accepted it", u)
		}
		if got := l.Utils(); !slices.Equal(got, utils) || !slices.Equal(l.ActiveJobs(), []JobKey{held}) {
			t.Errorf("C/D %g: the refusals left utilizations %v and jobs %v", u, got, l.ActiveJobs())
		}
		if err := l.CheckInvariants(); err != nil {
			t.Errorf("C/D %g: %v", u, err)
		}
	}

	// The ends of the range convert: 0 adds nothing, and a stage at 1 has an
	// infinite term, so it can be recorded but never admitted.
	l := NewLedger(1)
	if err := l.AddJob(JobKey{Task: 0, Job: 0}, Aperiodic, place(PlacedStage{Util: 0}), false, time.Hour); err != nil || l.Util(0) != 0 {
		t.Errorf("AddJob of C/D 0: %v, Util(0) = %g", err, l.Util(0))
	}
	if l.Admissible(place(PlacedStage{Util: 1})) {
		t.Error("a stage at C/D 1 was admissible")
	}
	if err := l.AddJob(JobKey{Task: 0, Job: 1}, Aperiodic, place(PlacedStage{Util: 1}), false, time.Hour); err != nil || l.Util(0) != 1 {
		t.Errorf("AddJob of C/D 1: %v, Util(0) = %g", err, l.Util(0))
	}
}

// TestToUnitsRoundsUp pins the conversion: a C/D on the unit grid converts
// exactly, and one between two grid points takes the upper one, so the
// ledger never holds less than a stage brings.
func TestToUnitsRoundsUp(t *testing.T) {
	unit := 1.0 / unitsPerOne
	for _, u := range []float64{0, unit, 0.25, 0.5, 1, 0.1, 0.3, 1e-17, 0.2 + 0.1, 1 - unit/2} {
		n, ok := toUnits(u)
		got := fromUnits(n)
		if !ok || got < u || got-u >= unit {
			t.Errorf("toUnits(%g) = %d (%g), %v; want the least grid value at or above it", u, n, got, ok)
		}
		if u == math.Floor(u*unitsPerOne)/unitsPerOne && got != u {
			t.Errorf("grid value %g converted to %g", u, got)
		}
	}
}

func TestLedgerRelocate(t *testing.T) {
	l := NewLedger(3)
	ref := JobKey{Task: 7, Job: 0}
	if err := l.AddJob(ref, Periodic, place(
		PlacedStage{Stage: 0, Proc: 0, Util: 0.2},
		PlacedStage{Stage: 1, Proc: 1, Util: 0.1},
	), true, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Relocate(ref, place(
		PlacedStage{Stage: 0, Proc: 2, Util: 0.2},
		PlacedStage{Stage: 1, Proc: 1, Util: 0.1},
	)); err != nil {
		t.Fatal(err)
	}
	if got := l.Util(0); got != 0 {
		t.Errorf("Util(0) = %g after relocation, want 0", got)
	}
	if got := l.Util(2); got != onGrid(0.2) {
		t.Errorf("Util(2) = %g after relocation, want 0.2", got)
	}
	if err := l.Relocate(JobKey{Task: 8, Job: 9}, nil); err == nil {
		t.Error("Relocate of unknown job succeeded")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestLedgerActiveJobsOrdering(t *testing.T) {
	l := NewLedger(1)
	for _, ref := range []JobKey{{Task: 2, Job: 1}, {Task: 0, Job: 2}, {Task: 0, Job: 0}} {
		if err := l.AddJob(ref, Aperiodic, place(PlacedStage{Proc: 0, Util: 0.01}), false, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	got := l.ActiveJobs()
	want := []JobKey{{Task: 0, Job: 0}, {Task: 0, Job: 2}, {Task: 2, Job: 1}}
	if len(got) != len(want) {
		t.Fatalf("ActiveJobs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ActiveJobs() = %v, want %v", got, want)
		}
	}
}

// TestLedgerRandomOps drives the ledger through random operation sequences
// and checks the accounting invariants after every step.
func TestLedgerRandomOps(t *testing.T) {
	const (
		numProcs = 4
		numOps   = 5000
	)
	rng := rand.New(rand.NewSource(42))
	l := NewLedger(numProcs)
	var live []JobKey
	next := int64(0)

	for op := 0; op < numOps; op++ {
		switch rng.Intn(4) {
		case 0: // admit
			ref := JobKey{Task: 10, Job: next}
			next++
			stages := 1 + rng.Intn(3)
			pl := make([]PlacedStage, stages)
			for s := range pl {
				pl[s] = PlacedStage{Stage: s, Proc: rng.Intn(numProcs), Util: rng.Float64() * 0.3}
			}
			kind := Periodic
			if rng.Intn(2) == 0 {
				kind = Aperiodic
			}
			if err := l.AddJob(ref, kind, pl, false, time.Duration(op)*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			live = append(live, ref)
		case 1: // expire
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			l.ExpireJob(live[i])
			live = append(live[:i], live[i+1:]...)
		case 2: // complete a random stage
			if len(live) == 0 {
				continue
			}
			l.MarkComplete(live[rng.Intn(len(live))], rng.Intn(3))
		case 3: // idle reset on a random processor
			proc := rng.Intn(numProcs)
			for _, r := range l.CompletedOn(proc, rng.Intn(2) == 0) {
				l.ResetEntry(r)
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}

// TestAdmissibleNeverBreaksCondition verifies by construction that any
// sequence of admissions accepted by the test keeps condition (1) holding
// for every in-flight job.
func TestAdmissibleNeverBreaksCondition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const numProcs = 3
	l := NewLedger(numProcs)
	type admitted struct {
		procs []int
	}
	var adm []admitted
	for i := 0; i < 400; i++ {
		stages := 1 + rng.Intn(3)
		pl := make([]PlacedStage, stages)
		procs := make([]int, stages)
		for s := range pl {
			p := rng.Intn(numProcs)
			pl[s] = PlacedStage{Stage: s, Proc: p, Util: rng.Float64() * 0.4}
			procs[s] = p
		}
		if !l.Admissible(pl) {
			continue
		}
		ref := JobKey{Task: 10, Job: int64(i)}
		if err := l.AddJob(ref, Aperiodic, pl, false, time.Hour); err != nil {
			t.Fatal(err)
		}
		adm = append(adm, admitted{procs: procs})
		// Every admitted (never-completed) job must satisfy condition (1)
		// under the post-admission utilizations.
		for _, a := range adm {
			var sum int64
			for _, p := range a.procs {
				sum += termUnits(l.util[p])
			}
			if sum > unitsPerOne {
				t.Fatalf("after admission %d: condition violated (sum=%d units)", i, sum)
			}
		}
	}
	if len(adm) == 0 {
		t.Fatal("no jobs admitted; test is vacuous")
	}
}

// addManyGroups fills a ledger with groups distinct three-stage signatures
// {0, a, b}, 1 ≤ a < b < procs in lexicographic order, two in-flight jobs
// each, so that every signature group is indexed under processor 0. Processor
// 0 ends at synthetic utilization 0.2 and no other exceeds it, which leaves
// every job's condition (≤ 3·f(0.2) = 0.675) comfortably satisfied.
func addManyGroups(tb testing.TB, procs, groups int, add func(JobKey, []PlacedStage) error) {
	tb.Helper()
	x := 0.2 / float64(2*groups)
	n := 0
	for a := 1; a < procs && n < groups; a++ {
		for b := a + 1; b < procs && n < groups; b++ {
			for j := 0; j < 2; j++ {
				ref := JobKey{Task: 3, Job: int64(2*n + j)}
				pl := place(PlacedStage{Stage: 0, Proc: 0, Util: x},
					PlacedStage{Stage: 1, Proc: a, Util: x},
					PlacedStage{Stage: 2, Proc: b, Util: x})
				if err := add(ref, pl); err != nil {
					tb.Fatal(err)
				}
			}
			n++
		}
	}
	if n < groups {
		tb.Fatalf("%d processors make only %d {0,a,b} signatures, want %d", procs, n, groups)
	}
}

// ownFeasible reports whether a candidate with distinct processors satisfies
// its own condition under the tentative utilizations, i.e. whether a
// rejection must have come from a perturbed in-flight job.
func ownFeasible(l *Ledger, cand []PlacedStage) bool {
	var sum int64
	for _, p := range cand {
		n, _ := toUnits(p.Util)
		sum += termUnits(l.util[p.Proc] + n)
	}
	return sum <= unitsPerOne
}

// TestAdmissibleManyGroups runs the admission test where one processor
// indexes 66 signature groups, past anything a fixed-size visited list would
// hold: the test must not allocate, must agree with the full-scan reference
// on each way a decision can fall, must pass on the maxCount·grow skip
// exactly the groups it can vouch for and sum the rest — a group indexed
// under two perturbed processors once, and a group record recycled between
// two tests.
func TestAdmissibleManyGroups(t *testing.T) {
	const procs, groups = 13, 66
	// One processor more than the signatures use: a candidate stage placed on
	// it perturbs no group but counts toward the growth the skip allows for.
	const spare = procs
	l := NewLedger(procs + 1)
	addManyGroups(t, procs, groups, func(ref JobKey, pl []PlacedStage) error {
		return l.AddJob(ref, Aperiodic, pl, false, time.Hour)
	})
	if got := len(l.procGroups[0]); got != groups {
		t.Fatalf("processor 0 indexes %d groups, want %d", got, groups)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// met counts the distinct counted groups indexed under the candidate's
	// processors, summed those the most recent test stamped.
	met := func(cand []PlacedStage) int {
		seen := make(map[int32]bool)
		for _, p := range cand {
			for _, r := range l.procGroups[p.Proc] {
				if l.sums[r.group].counted > 0 {
					seen[r.group] = true
				}
			}
		}
		return len(seen)
	}
	summed := func() int {
		n := 0
		for _, g := range allGroups(l) {
			if l.group(g).scanned == l.scan {
				n++
			}
		}
		return n
	}

	tests := []struct {
		name string
		cand []PlacedStage
		want bool
		// own is whether the candidate's own condition holds; false rejects
		// before any group is looked at.
		own bool
		// met and summed are the groups an accepting scan comes across and
		// the ones among them it cannot pass on the skip.
		met, summed int
	}{
		// Every group sums to 0.29 and the candidate adds 0.015.
		{name: "accept", cand: place(PlacedStage{Proc: 0, Util: 0.01}),
			want: true, own: true, met: groups, summed: 0},
		{name: "reject by own sum", cand: place(PlacedStage{Proc: 0, Util: 0.5})},
		// f(0.57) = 0.948 leaves the candidate feasible alone, but every
		// {0,a,b} job adds its two other stages on top.
		{name: "reject by perturbed group", cand: place(PlacedStage{Proc: 0, Util: 0.37}), own: true},
		// Processors 1 and 2 index 11 groups each and share {0,1,2}: 21
		// distinct groups.
		{name: "accept on two processors",
			cand: place(PlacedStage{Stage: 0, Proc: 1, Util: 0.01}, PlacedStage{Stage: 1, Proc: 2, Util: 0.01}),
			want: true, own: true, met: 21, summed: 0},
		// Only {0,1,2} fails, and only with both tentative terms applied:
		// 0.225 + 2·f(0.333) = 1.06, against 0.68 with either one alone.
		{name: "reject by group on both processors",
			cand: place(PlacedStage{Stage: 0, Proc: 1, Util: 0.3}, PlacedStage{Stage: 1, Proc: 2, Util: 0.3}),
			own:  true},
		// The stage on the spare processor grows the candidate's terms by
		// f(0.5) = 0.75, which no group's 0.29 leaves room for: the skip
		// passes nothing, and every group's exact sum (the spare processor
		// is not in it) accepts.
		{name: "accept with every group past the bound",
			cand: place(PlacedStage{Stage: 0, Proc: 0, Util: 0.01}, PlacedStage{Stage: 1, Proc: spare, Util: 0.5}),
			want: true, own: true, met: groups, summed: groups},
		// The same on two perturbed processors: {0,1,2} is summed once.
		{name: "accept on two processors past the bound",
			cand: place(PlacedStage{Stage: 0, Proc: 1, Util: 0.01}, PlacedStage{Stage: 1, Proc: 2, Util: 0.01},
				PlacedStage{Stage: 2, Proc: spare, Util: 0.5}),
			want: true, own: true, met: 21, summed: 21},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ownFeasible(l, tt.cand); got != tt.own {
				t.Fatalf("candidate's own condition = %v, want %v", got, tt.own)
			}
			got, ref := l.Admissible(tt.cand), l.referenceAdmissible(tt.cand)
			if got != tt.want || ref != tt.want {
				t.Errorf("Admissible = %v, reference = %v, want %v", got, ref, tt.want)
			}
			if tt.want && (met(tt.cand) != tt.met || summed() != tt.summed) {
				t.Errorf("test met %d groups and summed %d, want %d and %d", met(tt.cand), summed(), tt.met, tt.summed)
			}
			if allocs := testing.AllocsPerRun(100, func() { l.Admissible(tt.cand) }); allocs != 0 {
				t.Errorf("Admissible allocates %v times per call, want 0", allocs)
			}
		})
	}

	t.Run("recycled group", func(t *testing.T) {
		// Stamp every group (the spare-processor stage puts them all past
		// the skip), then retire {0,1,2}: its record goes to the free list
		// carrying the stamp of the test that just ran.
		cand := place(PlacedStage{Proc: 0, Util: 0.05})
		if !l.Admissible(place(PlacedStage{Stage: 0, Proc: 0, Util: 0.01}, PlacedStage{Stage: 1, Proc: spare, Util: 0.5})) {
			t.Fatal("light candidate rejected")
		}
		old := groupOf(l, "0:1,1:1,2:1")
		if old == 0 || l.group(old).scanned != l.scan {
			t.Fatal("group {0,1,2} missing or not summed")
		}
		// {0,1,2} is the first signature addManyGroups makes: jobs 0 and 1.
		l.ExpireJob(JobKey{Task: 3, Job: 0})
		l.ExpireJob(JobKey{Task: 3, Job: 1})
		if l.freeGroup != old || l.group(old).next != 0 {
			t.Fatal("group {0,1,2} was not recycled")
		}
		// A job with a new signature takes the record over. It sits just
		// under the bound (0.225 + 2·f(0.3) = 0.95) and is the only job the
		// candidate breaks (f(0.25) + 2·f(0.3) = 1.02).
		heavy := JobKey{Task: 6, Job: 0}
		w := (0.3 - l.Util(3)) / 2
		if err := l.AddJob(heavy, Aperiodic, place(
			PlacedStage{Stage: 0, Proc: 0, Util: 0},
			PlacedStage{Stage: 1, Proc: 3, Util: w},
			PlacedStage{Stage: 2, Proc: 3, Util: w}), false, time.Hour); err != nil {
			t.Fatal(err)
		}
		if groupOf(l, "0:1,3:2") != old {
			t.Fatal("new signature did not reuse the recycled record")
		}
		if !l.Admissible(nil) {
			t.Fatal("ledger violated before the candidate")
		}
		if !ownFeasible(l, cand) {
			t.Fatal("candidate infeasible on its own")
		}
		if got, ref := l.Admissible(cand), l.referenceAdmissible(cand); got || ref {
			t.Errorf("Admissible = %v, reference = %v, want both false: the recycled group must be summed", got, ref)
		}
		l.ExpireJob(heavy)
		if got, ref := l.Admissible(cand), l.referenceAdmissible(cand); !got || !ref {
			t.Errorf("Admissible = %v, reference = %v after the heavy job expired, want both true", got, ref)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	// A group left uncounted while its processor grew past the bound and
	// shrank back keeps its exact sum, and an in-flight job that joins it
	// without growing the processor (a zero utilization stage) finds it
	// there, not flagged violated.
	t.Run("uncounted group joined", func(t *testing.T) {
		l := NewLedger(1)
		add := func(task TaskRef, util float64) JobKey {
			ref := JobKey{Task: task, Job: 0}
			if err := l.AddJob(ref, Aperiodic, place(PlacedStage{Proc: 0, Util: util}), false, time.Hour); err != nil {
				t.Fatal(err)
			}
			return ref
		}
		l.MarkComplete(add(0, 0.3), 0)
		heavy := add(1, 0.4)
		l.MarkComplete(heavy, 0)
		l.ExpireJob(heavy)
		g := groupOf(l, "0:1")
		if g == 0 || l.sums[g].counted != 0 {
			t.Fatalf("want group {0} uncounted, got slot %d", g)
		}
		add(2, 0)
		if s := l.sums[g]; s.counted != 1 || s.cachedSum != termUnits(l.util[0]) || l.violated != 0 {
			t.Errorf("after the join: counted %d, cached sum %d (fresh %d), violated %d; want 1, the fresh sum, 0",
				s.counted, s.cachedSum, termUnits(l.util[0]), l.violated)
		}
		cand := place(PlacedStage{Proc: 0, Util: 0.1})
		if got, ref := l.Admissible(cand), l.referenceAdmissible(cand); !got || !ref {
			t.Errorf("Admissible = %v, reference = %v, want both true", got, ref)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardedAdmissibleManyGroups reaches the same scan through
// NewShardedLedger: its Admissible and TestAndAddKey must decide as NewLedger does
// at 66 groups on the candidate's processor, without allocating.
func TestShardedAdmissibleManyGroups(t *testing.T) {
	const procs, groups = 13, 66
	plain := NewLedger(procs)
	sl := NewShardedLedger(procs, 1)
	addManyGroups(t, procs, groups, func(ref JobKey, pl []PlacedStage) error {
		if err := plain.AddJob(ref, Aperiodic, pl, false, time.Hour); err != nil {
			return err
		}
		return sl.AddJob(ref, Aperiodic, pl, false, time.Hour)
	})
	for _, cand := range [][]PlacedStage{
		place(PlacedStage{Proc: 0, Util: 0.01}),
		place(PlacedStage{Proc: 0, Util: 0.5}),
		place(PlacedStage{Proc: 0, Util: 0.37}),
		place(PlacedStage{Stage: 0, Proc: 1, Util: 0.3}, PlacedStage{Stage: 1, Proc: 2, Util: 0.3}),
	} {
		want := plain.Admissible(cand)
		if got := sl.Admissible(cand); got != want {
			t.Errorf("sharded Admissible(%v) = %v, plain = %v", cand, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { sl.Admissible(cand) }); allocs != 0 {
			t.Errorf("sharded Admissible(%v) allocates %v times per call, want 0", cand, allocs)
		}
		ref := JobKey{Task: 4, Job: 0}
		got, err := sl.TestAndAddKey(ref, Aperiodic, cand, false, time.Hour)
		if err != nil || got != want {
			t.Errorf("TestAndAddKey(%v) = %v, %v, plain Admissible = %v", cand, got, err, want)
		}
		sl.WithdrawKey(ref)
	}
	if err := sl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
