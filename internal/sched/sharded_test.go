package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shardedTwinHarness drives a plain Ledger and a ShardedLedger through one
// identical random operation sequence — admission-checked TestAndAdd, force
// AddJob overloads, expiry, withdrawal, completion, idle resets, relocation
// and task withdrawal — and after every mutation asserts that the two agree
// bit for bit on utilizations, and on admission decisions and active jobs,
// and that the locked ledger passes its invariant audit.
func shardedTwinHarness(t *testing.T, seed int64, shards, ops int) {
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
			if pu, su := ref.Util(p), sl.Util(p); math.Float64bits(pu) != math.Float64bits(su) {
				t.Fatalf("seed %d step %d after %s: processor %d plain util %g, locked %g", seed, step, op, p, pu, su)
			}
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
		case 2, 3: // TestAndAdd against the plain test-then-add pair.
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
		case 9, 10: // Relocate a live job.
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

// TestShardedLedgerDifferential holds the locked ledger to the plain one
// through every operation: NewShardedLedger ignores its shard count (the
// frozen benchmark probe still passes 8), so whatever count it is given, the
// ledger decides and accounts as the plain ledger does, bit for bit.
func TestShardedLedgerDifferential(t *testing.T) {
	for _, shards := range []int{2, 3, 6} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				shardedTwinHarness(t, seed, shards, 100)
			}
		})
	}
}

// TestShardedLedgerSingleShardBitIdentical pins the delegation property the
// golden-metrics test relies on, at the count core.NewController passes:
// every operation is the plain ledger's, so per-processor utilizations stay
// bit-identical to it at every step.
func TestShardedLedgerSingleShardBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		shardedTwinHarness(t, seed, 1, 100)
	}
}

// TestShardedLedgerConcurrentLinearizable holds TestAndAdd to one critical
// section (run under -race in CI): in every round several goroutines,
// released together, race to admit a job onto a processor with room for
// exactly one, and exactly one is admitted. A test and an add taken under
// two separate locks would let a second candidate pass the test before the
// first commits. Background jobs on the other processors give the scan
// groups to walk; the shard count is ignored, and both counts the parent
// tested run.
func TestShardedLedgerConcurrentLinearizable(t *testing.T) {
	const procs, workers, rounds = 8, 8, 200
	for _, shards := range []int{4, 1} {
		for seed := int64(0); seed < 3; seed++ {
			name := fmt.Sprintf("seed=%d", seed)
			if shards == 1 {
				name = "shards=1/" + name
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				sl := NewShardedLedger(procs, shards)
				hot := rng.Intn(procs)
				for j := int64(0); j < 20; j++ {
					pl := []PlacedStage{{Stage: 0, Proc: (hot + 1 + rng.Intn(procs-1)) % procs, Util: 0.01 * rng.Float64()}}
					if ok, err := sl.TestAndAdd(JobRef{Task: "bg", Job: j}, Aperiodic, pl, false, time.Hour); !ok || err != nil {
						t.Fatalf("background job %d: %v, %v", j, ok, err)
					}
				}
				// f(u) ≤ 1 holds up to u = 2 − √2 ≈ 0.586, so one candidate in
				// [0.30, 0.55] fits on the empty processor and two never do.
				cand := []PlacedStage{{Stage: 0, Proc: hot, Util: 0.30 + 0.25*rng.Float64()}}
				for round := int64(0); round < rounds; round++ {
					start := make(chan struct{})
					var admitted atomic.Int64
					var winner atomic.Int64
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							<-start
							ok, err := sl.TestAndAdd(JobRef{Task: "race", Job: round*workers + int64(w)}, Aperiodic, cand, false, time.Hour)
							if err != nil {
								t.Errorf("round %d worker %d: %v", round, w, err)
							}
							if ok {
								admitted.Add(1)
								winner.Store(round*workers + int64(w))
							}
						}()
					}
					close(start)
					wg.Wait()
					if n := admitted.Load(); n != 1 {
						t.Fatalf("round %d: %d of %d candidates admitted where one fits", round, n, workers)
					}
					if err := sl.CheckInvariants(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					if n := sl.WithdrawJob(JobRef{Task: "race", Job: winner.Load()}); n != 1 {
						t.Fatalf("round %d: withdrawing the admitted job removed %d contributions", round, n)
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

// TestShardedAdmitWithdrawAllocFree holds the admission round trip the AC
// runs per job — TestAndAdd, then WithdrawJob — to zero allocations once the
// task's job list exists, and the simulation's by ref — admit, idle reset,
// expire — too. The repo benchmark's sched.admit_* rows time the first.
func TestShardedAdmitWithdrawAllocFree(t *testing.T) {
	sl := NewShardedLedger(8, 1)
	placement := place(PlacedStage{Stage: 0, Proc: 3, Util: 0.001})
	job := int64(0)
	admitWithdraw := func() {
		ref := JobRef{Task: "churn", Job: job}
		job++
		if ok, err := sl.TestAndAdd(ref, Aperiodic, placement, false, time.Hour); !ok || err != nil {
			t.Fatalf("TestAndAdd(%v) = %v, %v", ref, ok, err)
		}
		if n := sl.WithdrawJob(ref); n != 1 {
			t.Fatalf("WithdrawJob(%v) removed %d contributions, want 1", ref, n)
		}
	}
	if allocs := testing.AllocsPerRun(1000, admitWithdraw); allocs != 0 {
		t.Errorf("TestAndAdd + WithdrawJob allocates %v times per job, want 0", allocs)
	}
	// The simulation's round trip by ref: admit, the idle report of the
	// completed stage, then the deadline expiry.
	tr, _ := sl.l.tasks.Lookup("churn")
	admitResetExpire := func() {
		k := JobKey{Task: tr, Job: job}
		job++
		if ok, err := sl.TestAndAddKey(k, Aperiodic, placement, false, time.Hour); !ok || err != nil {
			t.Fatalf("TestAndAddKey(%v) = %v, %v", k, ok, err)
		}
		if !sl.ResetReportedKey(Entry[JobKey]{Ref: k, Stage: 0, Proc: 3}) {
			t.Fatalf("ResetReportedKey(%v) released nothing", k)
		}
		if n := sl.ExpireKey(k); n != 0 {
			t.Fatalf("ExpireKey(%v) removed %d contributions after the reset, want 0", k, n)
		}
	}
	if allocs := testing.AllocsPerRun(1000, admitResetExpire); allocs != 0 {
		t.Errorf("TestAndAddKey + ResetReportedKey + ExpireKey allocates %v times per job, want 0", allocs)
	}
	if err := sl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := len(sl.ActiveJobs()); n != 0 {
		t.Errorf("%d jobs left after the round trips", n)
	}
}

// TestShardedDoubleAdmissionRefused pins the refusal the locked ledger takes
// from the ledger's own job index: a second TestAndAdd or AddJob of a
// reference fails with one error, whatever (ignored) shard count the ledger
// was built with, and changes nothing.
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
// same answer for a job the ledger does not hold — the ledger's own lookup
// says so — whatever (ignored) shard count the ledger was built with.
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

// TestShardedRemoveTaskVsParallelSubmit races RemoveTask against parallel
// TestAndAdd on the same signature group and pins the lifecycle accounting:
// every admitted job is either withdrawn by a RemoveTask sweep or still
// active at the end — zero lost jobs — and the ledger passes a full audit.
func TestShardedRemoveTaskVsParallelSubmit(t *testing.T) {
	const procs, workers, jobsPer = 8, 4, 200
	sl := NewShardedLedger(procs, 1)
	// Every submitter uses the same two-processor signature: one group, which
	// the sweeps empty while submissions refill it.
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
