package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shardedTwinHarness drives a plain Ledger and a ShardedLedger through one
// identical random operation sequence — including cross-shard placements,
// admission-checked TestAndAdd, force AddJob overloads, relocation and task
// withdrawal — and after every mutation asserts that the two agree on
// utilizations, admission decisions, active jobs, and that the sharded
// structure passes its own invariant audit.
func shardedTwinHarness(t *testing.T, seed int64, shards, ops int, utilEq func(t *testing.T, step int, op string, plain, sharded float64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const procs = 6
	ref := NewLedger(procs)
	sl := NewShardedLedger(procs, shards)

	var live []JobRef
	nextJob := int64(0)

	randPlacement := func(maxUtil float64) []PlacedStage {
		stages := 1 + rng.Intn(3)
		pl := make([]PlacedStage, stages)
		for s := range pl {
			pl[s] = PlacedStage{Stage: s, Proc: rng.Intn(procs), Util: rng.Float64() * maxUtil}
		}
		return pl
	}

	check := func(step int, op string) {
		t.Helper()
		if err := sl.CheckInvariants(); err != nil {
			t.Fatalf("seed %d step %d after %s: %v", seed, step, op, err)
		}
		for p := 0; p < procs; p++ {
			utilEq(t, step, op, ref.Util(p), sl.Util(p))
		}
		for q := 0; q < 4; q++ {
			cand := randPlacement(0.5)
			want := ref.Admissible(cand)
			if got := sl.Admissible(cand); got != want {
				t.Fatalf("seed %d step %d after %s: sharded Admissible(%v)=%v, plain=%v",
					seed, step, op, cand, got, want)
			}
		}
		pa, sa := ref.ActiveJobs(), sl.ActiveJobs()
		if len(pa) != len(sa) {
			t.Fatalf("seed %d step %d after %s: plain has %d active jobs, sharded %d", seed, step, op, len(pa), len(sa))
		}
		for i := range pa {
			if pa[i] != sa[i] {
				t.Fatalf("seed %d step %d after %s: active jobs diverge at %d: %v vs %v", seed, step, op, i, pa[i], sa[i])
			}
		}
	}

	for step := 0; step < ops; step++ {
		var op string
		switch rng.Intn(12) {
		case 0, 1: // Force AddJob so overloaded (violating) states are exercised.
			r := JobRef{Task: fmt.Sprintf("t%d", rng.Intn(5)), Job: nextJob}
			nextJob++
			kind := Aperiodic
			if rng.Intn(2) == 0 {
				kind = Periodic
			}
			permanent := rng.Intn(5) == 0
			pl := randPlacement(0.6)
			if err := ref.AddJob(r, kind, pl, permanent, time.Duration(step)*time.Millisecond); err != nil {
				t.Fatalf("seed %d step %d: plain AddJob: %v", seed, step, err)
			}
			if err := sl.AddJob(r, kind, pl, permanent, time.Duration(step)*time.Millisecond); err != nil {
				t.Fatalf("seed %d step %d: sharded AddJob: %v", seed, step, err)
			}
			live = append(live, r)
			op = "AddJob"
		case 2, 3: // TestAndAdd: the sharded atomic admission path against the
			// plain test-then-add pair.
			r := JobRef{Task: fmt.Sprintf("t%d", rng.Intn(5)), Job: nextJob}
			nextJob++
			pl := randPlacement(0.4)
			want := ref.Admissible(pl)
			if want {
				if err := ref.AddJob(r, Aperiodic, pl, false, time.Duration(step)*time.Millisecond); err != nil {
					t.Fatalf("seed %d step %d: plain AddJob after admit: %v", seed, step, err)
				}
			}
			got, err := sl.TestAndAdd(r, Aperiodic, pl, false, time.Duration(step)*time.Millisecond)
			if err != nil {
				t.Fatalf("seed %d step %d: TestAndAdd: %v", seed, step, err)
			}
			if got != want {
				t.Fatalf("seed %d step %d: TestAndAdd(%v)=%v, plain admission=%v", seed, step, pl, got, want)
			}
			if got {
				live = append(live, r)
			}
			op = "TestAndAdd"
		case 4: // ExpireJob (sometimes of an unknown job).
			r := JobRef{Task: "nope", Job: -1}
			if len(live) > 0 && rng.Intn(8) != 0 {
				i := rng.Intn(len(live))
				r = live[i]
				live = append(live[:i], live[i+1:]...)
			}
			if pn, sn := ref.ExpireJob(r), sl.ExpireJob(r); pn != sn {
				t.Fatalf("seed %d step %d: ExpireJob(%s) removed %d (plain) vs %d (sharded)", seed, step, r, pn, sn)
			}
			op = "ExpireJob"
		case 5: // WithdrawJob.
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			r := live[i]
			live = append(live[:i], live[i+1:]...)
			if pn, sn := ref.WithdrawJob(r), sl.WithdrawJob(r); pn != sn {
				t.Fatalf("seed %d step %d: WithdrawJob(%s) removed %d (plain) vs %d (sharded)", seed, step, r, pn, sn)
			}
			op = "WithdrawJob"
		case 6: // MarkComplete on a random live job and stage.
			if len(live) == 0 {
				continue
			}
			r := live[rng.Intn(len(live))]
			stage := rng.Intn(3)
			ref.MarkComplete(r, stage)
			sl.MarkComplete(r, stage)
			op = "MarkComplete"
		case 7: // ResetEntry via CompletedOn, as the idle resetters do.
			proc := rng.Intn(procs)
			inclP := rng.Intn(2) == 0
			pres, sres := ref.CompletedOn(proc, inclP), sl.CompletedOn(proc, inclP)
			if len(pres) != len(sres) {
				t.Fatalf("seed %d step %d: CompletedOn(%d) %d entries (plain) vs %d (sharded)", seed, step, proc, len(pres), len(sres))
			}
			for i := range pres {
				if pres[i] != sres[i] {
					t.Fatalf("seed %d step %d: CompletedOn(%d)[%d] %v (plain) vs %v (sharded)", seed, step, proc, i, pres[i], sres[i])
				}
				if pok, sok := ref.ResetEntry(pres[i]), sl.ResetEntry(sres[i]); pok != sok {
					t.Fatalf("seed %d step %d: ResetEntry(%v) %v (plain) vs %v (sharded)", seed, step, pres[i], pok, sok)
				}
			}
			op = "ResetEntry"
		case 8: // ResetReported on a raw random reference (mostly misses).
			if len(live) == 0 {
				continue
			}
			er := EntryRef{Ref: live[rng.Intn(len(live))], Stage: rng.Intn(3), Proc: rng.Intn(procs)}
			if pok, sok := ref.ResetReported(er), sl.ResetReported(er); pok != sok {
				t.Fatalf("seed %d step %d: ResetReported(%v) %v (plain) vs %v (sharded)", seed, step, er, pok, sok)
			}
			op = "ResetReported"
		case 9, 10: // Relocate a live job, often across shard boundaries.
			if len(live) == 0 {
				continue
			}
			r := live[rng.Intn(len(live))]
			pl := randPlacement(0.4)
			perr := ref.Relocate(r, pl)
			serr := sl.Relocate(r, pl)
			if (perr == nil) != (serr == nil) {
				t.Fatalf("seed %d step %d: Relocate(%s) plain err %v, sharded err %v", seed, step, r, perr, serr)
			}
			op = "Relocate"
		case 11: // RemoveTask withdraws every job of one task name.
			task := fmt.Sprintf("t%d", rng.Intn(5))
			if pn, sn := ref.RemoveTask(task), sl.RemoveTask(task); pn != sn {
				t.Fatalf("seed %d step %d: RemoveTask(%s) removed %d (plain) vs %d (sharded)", seed, step, task, pn, sn)
			}
			kept := live[:0]
			for _, r := range live {
				if r.Task != task {
					kept = append(kept, r)
				}
			}
			live = kept
			op = "RemoveTask"
		}
		check(step, op)
	}
}

// TestShardedLedgerDifferential is the sharded-vs-reference differential
// property test: under random operation sequences spanning shard boundaries,
// the sharded ledger must be decision- and state-equivalent to the plain
// ledger. Utilizations may drift by float-rounding only where a cross-shard
// relocation re-accumulates a processor's sum.
func TestShardedLedgerDifferential(t *testing.T) {
	approx := func(t *testing.T, step int, op string, plain, sharded float64) {
		t.Helper()
		if math.Abs(plain-sharded) > 1e-9 {
			t.Fatalf("step %d after %s: plain util %g, sharded %g", step, op, plain, sharded)
		}
	}
	for _, shards := range []int{2, 3, 6} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				shardedTwinHarness(t, seed, shards, 100, approx)
			}
		})
	}
}

// TestShardedLedgerSingleShardBitIdentical pins the delegation property the
// golden-metrics test relies on: with one shard, every operation routes
// through a single plain ledger, so per-processor utilizations stay
// bit-identical to the unsharded ledger at every step.
func TestShardedLedgerSingleShardBitIdentical(t *testing.T) {
	exact := func(t *testing.T, step int, op string, plain, sharded float64) {
		t.Helper()
		if math.Float64bits(plain) != math.Float64bits(sharded) {
			t.Fatalf("step %d after %s: plain util bits %x, sharded %x", step, op, math.Float64bits(plain), math.Float64bits(sharded))
		}
	}
	for seed := int64(0); seed < 6; seed++ {
		shardedTwinHarness(t, seed, 1, 100, exact)
	}
}

// concurrentWorkload runs an admission-only mixed workload (TestAndAdd with
// single- and cross-shard placements, MarkComplete, ResetReported, expiry,
// withdrawal, RemoveTask) from several goroutines against a journaling
// sharded ledger and returns it for replay. Admission-checked traffic never
// creates a violated condition, so every pair of non-commuting operations
// holds a common shard lock while journaling, making the journal order a
// valid linearization.
func concurrentWorkload(t *testing.T, seed int64, procs, shards, workers, opsPer int) *ShardedLedger {
	t.Helper()
	sl := NewShardedLedger(procs, shards)
	sl.enableJournal()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			type ownedJob struct {
				ref JobRef
				pl  []PlacedStage
			}
			var owned []ownedJob
			nextJob := int64(0)
			task := func() string { return fmt.Sprintf("w%d-t%d", w, rng.Intn(3)) }
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // TestAndAdd, ~1/3 cross-shard.
					stages := 1 + rng.Intn(3)
					pl := make([]PlacedStage, stages)
					if rng.Intn(3) == 0 {
						for s := range pl {
							pl[s] = PlacedStage{Stage: s, Proc: rng.Intn(procs), Util: 0.05 * rng.Float64()}
						}
					} else {
						base := rng.Intn(shards) * (procs / shards)
						for s := range pl {
							pl[s] = PlacedStage{Stage: s, Proc: base + rng.Intn(procs/shards), Util: 0.05 * rng.Float64()}
						}
					}
					r := JobRef{Task: task(), Job: int64(w)*1_000_000 + nextJob}
					nextJob++
					ok, err := sl.TestAndAdd(r, Aperiodic, pl, false, time.Hour)
					if err != nil {
						t.Errorf("worker %d: TestAndAdd: %v", w, err)
						return
					}
					if ok {
						owned = append(owned, ownedJob{r, pl})
					}
				case 4, 5: // MarkComplete on an owned job.
					if len(owned) == 0 {
						continue
					}
					j := owned[rng.Intn(len(owned))]
					sl.MarkComplete(j.ref, j.pl[rng.Intn(len(j.pl))].Stage)
				case 6: // ResetReported on an owned entry.
					if len(owned) == 0 {
						continue
					}
					j := owned[rng.Intn(len(owned))]
					st := j.pl[rng.Intn(len(j.pl))]
					sl.ResetReported(EntryRef{Ref: j.ref, Stage: st.Stage, Proc: st.Proc})
				case 7: // ExpireJob an owned job.
					if len(owned) == 0 {
						continue
					}
					k := rng.Intn(len(owned))
					sl.ExpireJob(owned[k].ref)
					owned = append(owned[:k], owned[k+1:]...)
				case 8: // WithdrawJob an owned job.
					if len(owned) == 0 {
						continue
					}
					k := rng.Intn(len(owned))
					sl.WithdrawJob(owned[k].ref)
					owned = append(owned[:k], owned[k+1:]...)
				case 9: // RemoveTask one of this worker's task names.
					name := task()
					sl.RemoveTask(name)
					kept := owned[:0]
					for _, j := range owned {
						if j.ref.Task != name {
							kept = append(kept, j)
						}
					}
					owned = kept
				}
			}
		}()
	}
	wg.Wait()
	return sl
}

// replayJournal applies a sharded ledger's journal, in order, to a fresh
// plain ledger, failing if any recorded decision or removal count disagrees
// with what the plain ledger produces at the same point.
func replayJournal(t *testing.T, sl *ShardedLedger, procs int) *Ledger {
	t.Helper()
	l := NewLedger(procs)
	for i, op := range sl.journalOps() {
		switch op.kind {
		case opTestAndAdd:
			got := l.Admissible(op.placement)
			if got {
				if err := l.AddJob(op.ref, op.taskKind, op.placement, op.permanent, op.expiry); err != nil {
					t.Fatalf("journal[%d]: replay AddJob(%s): %v", i, op.ref, err)
				}
			}
			if got != op.decision {
				t.Fatalf("journal[%d]: TestAndAdd(%s) decided %v, replay decides %v", i, op.ref, op.decision, got)
			}
		case opAddJob:
			if err := l.AddJob(op.ref, op.taskKind, op.placement, op.permanent, op.expiry); err != nil {
				t.Fatalf("journal[%d]: replay AddJob(%s): %v", i, op.ref, err)
			}
		case opExpireJob:
			if n := l.ExpireJob(op.ref); n != op.n {
				t.Fatalf("journal[%d]: ExpireJob(%s) removed %d, replay removes %d", i, op.ref, op.n, n)
			}
		case opWithdrawJob:
			if n := l.WithdrawJob(op.ref); n != op.n {
				t.Fatalf("journal[%d]: WithdrawJob(%s) removed %d, replay removes %d", i, op.ref, op.n, n)
			}
		case opRemoveTask:
			if n := l.RemoveTask(op.task); n != op.n {
				t.Fatalf("journal[%d]: RemoveTask(%s) removed %d, replay removes %d", i, op.task, op.n, n)
			}
		case opMarkComplete:
			l.MarkComplete(op.ref, op.stage)
		case opResetEntry:
			if got := l.ResetEntry(op.entry); got != op.decision {
				t.Fatalf("journal[%d]: ResetEntry(%v) returned %v, replay returns %v", i, op.entry, op.decision, got)
			}
		case opResetReported:
			if got := l.ResetReported(op.entry); got != op.decision {
				t.Fatalf("journal[%d]: ResetReported(%v) returned %v, replay returns %v", i, op.entry, op.decision, got)
			}
		case opRelocate:
			if err := l.Relocate(op.ref, op.placement); err != nil {
				t.Fatalf("journal[%d]: replay Relocate(%s): %v", i, op.ref, err)
			}
		default:
			t.Fatalf("journal[%d]: unknown op kind %d", i, op.kind)
		}
	}
	return l
}

// TestShardedLedgerConcurrentLinearizable is the concurrent half of the
// differential property test (run under -race in CI): parallel goroutines
// drive admission, completion, idle resetting, expiry, withdrawal and task
// removal — including cross-shard candidates — and the journal of what the
// sharded ledger actually decided must replay exactly on a plain sequential
// ledger, ending in an identical state.
func TestShardedLedgerConcurrentLinearizable(t *testing.T) {
	const procs, workers, opsPer = 8, 4, 150
	// One shard keeps no route map: there the shard's own job index, under
	// its lock, is all that orders a lookup against an admission.
	for _, shards := range []int{4, 1} {
		for seed := int64(0); seed < 3; seed++ {
			name := fmt.Sprintf("seed=%d", seed)
			if shards == 1 {
				name = "shards=1/" + name
			}
			t.Run(name, func(t *testing.T) {
				sl := concurrentWorkload(t, seed, procs, shards, workers, opsPer)
				if err := sl.CheckInvariants(); err != nil {
					t.Fatalf("post-run audit: %v", err)
				}
				l := replayJournal(t, sl, procs)
				for p := 0; p < procs; p++ {
					if pu, su := l.Util(p), sl.Util(p); math.Float64bits(pu) != math.Float64bits(su) {
						t.Fatalf("processor %d: replay util %g, sharded %g", p, pu, su)
					}
				}
				pa, sa := l.ActiveJobs(), sl.ActiveJobs()
				if len(pa) != len(sa) {
					t.Fatalf("replay has %d active jobs, sharded %d", len(pa), len(sa))
				}
				for i := range pa {
					if pa[i] != sa[i] {
						t.Fatalf("active jobs diverge at %d: %v vs %v", i, pa[i], sa[i])
					}
				}
			})
		}
	}
}

// utilBits is a ledger's utilizations as bit patterns, for exact comparison.
func utilBits(sl *ShardedLedger) []uint64 {
	out := make([]uint64, sl.NumProcs())
	for p, u := range sl.Utils() {
		out[p] = math.Float64bits(u)
	}
	return out
}

// TestShardedDoubleAdmissionRefused pins the refusal a one-shard ledger now
// takes from the shard's own job index (it keeps no route to find the first
// admission in): a second TestAndAdd or AddJob of a reference fails with the
// same error as with several shards, and changes nothing.
func TestShardedDoubleAdmissionRefused(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sl := NewShardedLedger(8, shards)
			ref := JobRef{Task: "dup", Job: 3}
			pl := place(PlacedStage{Stage: 0, Proc: 0, Util: 0.1}, PlacedStage{Stage: 1, Proc: 1, Util: 0.2})
			if ok, err := sl.TestAndAdd(ref, Aperiodic, pl, false, time.Hour); !ok || err != nil {
				t.Fatalf("first TestAndAdd = %v, %v", ok, err)
			}
			before := utilBits(sl)
			const want = "sched: job dup#3 already in ledger"
			if ok, err := sl.TestAndAdd(ref, Aperiodic, pl, false, time.Hour); ok || err == nil || err.Error() != want {
				t.Errorf("second TestAndAdd = %v, %v; want false, %q", ok, err, want)
			}
			// Elsewhere in the ledger too: the reference is what is taken.
			other := place(PlacedStage{Stage: 0, Proc: 7, Util: 0.1})
			if err := sl.AddJob(ref, Periodic, other, true, 0); err == nil || err.Error() != want {
				t.Errorf("AddJob of an admitted reference = %v, want %q", err, want)
			}
			if got := utilBits(sl); !slices.Equal(got, before) {
				t.Errorf("utilizations moved: %x, were %x", got, before)
			}
			if err := sl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := sl.ExpireJob(ref); got != 2 {
				t.Errorf("ExpireJob removed %d contributions, want the first admission's 2", got)
			}
			if err := sl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedUnknownReference holds every reference-keyed operation to the
// same answer for a job the ledger does not hold, with one shard (nothing
// routed: the shard's lookup says so) as with four (no route).
func TestShardedUnknownReference(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sl := NewShardedLedger(8, shards)
			if err := sl.AddJob(JobRef{Task: "here", Job: 0}, Aperiodic, place(PlacedStage{Stage: 0, Proc: 2, Util: 0.3}), false, time.Hour); err != nil {
				t.Fatal(err)
			}
			before := utilBits(sl)
			// A task the ledger never saw, and a job number it never saw of a
			// task it knows.
			for _, ref := range []JobRef{{Task: "nope", Job: 0}, {Task: "here", Job: 9}} {
				if n := sl.ExpireJob(ref); n != 0 {
					t.Errorf("ExpireJob(%s) = %d, want 0", ref, n)
				}
				if n := sl.WithdrawJob(ref); n != 0 {
					t.Errorf("WithdrawJob(%s) = %d, want 0", ref, n)
				}
				if sl.ResetReported(EntryRef{Ref: ref, Stage: 0, Proc: 2}) {
					t.Errorf("ResetReported(%s) released utilization", ref)
				}
				if sl.ResetEntry(EntryRef{Ref: ref, Stage: 0, Proc: 2}) {
					t.Errorf("ResetEntry(%s) released utilization", ref)
				}
				sl.MarkComplete(ref, 0)
				want := "sched: relocate: job " + ref.String() + " not in ledger"
				for _, pl := range [][]PlacedStage{place(PlacedStage{Stage: 0, Proc: 1, Util: 0.1}), nil} {
					if err := sl.Relocate(ref, pl); err == nil || err.Error() != want {
						t.Errorf("Relocate(%s, %v) = %v, want %q", ref, pl, err, want)
					}
				}
			}
			if got := utilBits(sl); !slices.Equal(got, before) {
				t.Errorf("utilizations moved: %x, were %x", got, before)
			}
			if got := sl.ActiveJobs(); len(got) != 1 {
				t.Errorf("active jobs %v, want the one added", got)
			}
			if err := sl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedRouteAudit pins both halves of the route audit: with several
// shards a route that disagrees with where the shards hold the job fails
// CheckInvariants, and with one shard there is no route to disagree.
func TestShardedRouteAudit(t *testing.T) {
	ref := JobRef{Task: "r", Job: 1}
	pl := place(PlacedStage{Stage: 0, Proc: 0, Util: 0.1})
	for _, tc := range []struct {
		name    string
		corrupt func(sl *ShardedLedger)
		want    string
	}{
		{"wrong mask", func(sl *ShardedLedger) { sl.routeSet(ref, 1<<2) }, "routed to mask 0x4, shards hold 0x1"},
		{"missing", func(sl *ShardedLedger) { sl.routeDelete(ref) }, "route map holds 0 jobs, shards hold 1"},
		{"stale", func(sl *ShardedLedger) { sl.routeSet(JobRef{Task: "gone", Job: 0}, 1) }, "route map holds 2 jobs, shards hold 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sl := NewShardedLedger(8, 4)
			if err := sl.AddJob(ref, Aperiodic, pl, false, time.Hour); err != nil {
				t.Fatal(err)
			}
			if err := sl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(sl)
			if err := sl.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	one := NewShardedLedger(8, 1)
	if err := one.AddJob(ref, Aperiodic, pl, false, time.Hour); err != nil {
		t.Fatal(err)
	}
	one.routeSet(ref, 1<<2)
	for i := range one.routes {
		if n := len(one.routes[i].m); n != 0 {
			t.Errorf("one-shard ledger keeps %d routes in stripe %d", n, i)
		}
	}
	if err := one.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRemoveTaskVsParallelSubmit races RemoveTask against parallel
// TestAndAdd on the same signature group and pins the lifecycle accounting:
// every admitted job is either withdrawn by a RemoveTask sweep or still
// active at the end — zero lost jobs — and the ledger passes a full audit.
func TestShardedRemoveTaskVsParallelSubmit(t *testing.T) {
	const procs, shards, workers, jobsPer = 8, 4, 4, 200
	sl := NewShardedLedger(procs, shards)
	// Every submitter uses the same two-processor signature (one shard), the
	// worst case for the per-group contention the sharding is meant to keep
	// correct.
	placement := []PlacedStage{{Stage: 0, Proc: 0, Util: 1e-6}, {Stage: 1, Proc: 1, Util: 1e-6}}
	var admitted, withdrawnEntries atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobsPer; i++ {
				ref := JobRef{Task: "burst", Job: int64(w)*jobsPer + int64(i)}
				ok, err := sl.TestAndAdd(ref, Aperiodic, placement, false, time.Hour)
				if err != nil {
					t.Errorf("worker %d: TestAndAdd: %v", w, err)
					return
				}
				if ok {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			withdrawnEntries.Add(int64(sl.RemoveTask("burst")))
		}
	}()
	wg.Wait()
	withdrawnEntries.Add(int64(sl.RemoveTask("burst")))
	if err := sl.CheckInvariants(); err != nil {
		t.Fatalf("post-run audit: %v", err)
	}
	if rem := len(sl.ActiveJobs()); rem != 0 {
		t.Fatalf("%d jobs still active after final RemoveTask", rem)
	}
	// Each admitted job carries exactly len(placement) contributions, all
	// withdrawn by some RemoveTask sweep.
	if got, want := withdrawnEntries.Load(), admitted.Load()*int64(len(placement)); got != want {
		t.Fatalf("RemoveTask withdrew %d contributions, %d admissions should yield %d — jobs lost or duplicated",
			got, admitted.Load(), want)
	}
}
