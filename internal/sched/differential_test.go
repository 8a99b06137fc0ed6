package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// diffShape sizes the ledgers differentialHarness builds.
type diffShape struct {
	procs                int
	minStages, maxStages int
	// tasks is the number of tasks jobs are spread over; RemoveTask
	// withdraws one task's jobs at a time.
	tasks int
	// prefill jobs are added before the random operations start.
	prefill int
	// addUtil, moveUtil and candUtil bound the per-stage utilization of
	// added jobs, relocated jobs and admission candidates.
	addUtil, moveUtil, candUtil float64
	// admitOnly adds and relocates a job only where Admissible accepts its
	// placement, as the admission controller does, so no job's condition is
	// ever violated.
	admitOnly bool
}

// narrowShape keeps a handful of signature groups per processor and runs
// overloaded most of the time: the violated short-circuit and the
// candidate's own condition decide. wideShape is the regime of the
// simulation sweep: light multi-stage jobs over more processors, so every
// processor indexes well over 16 groups and the perturbed-group scan decides.
// saturatedShape is the regime the cached upper bounds live in: every job
// comes in through the admission test, so nothing is ever violated, shrinking
// processors leave cached sums stale across runs of ExpireJob and ResetEntry,
// and few enough signatures that MarkComplete empties a group's counted tally
// and a later job fills it again.
var (
	narrowShape = diffShape{procs: 6, minStages: 1, maxStages: 3, tasks: 5,
		addUtil: 0.6, moveUtil: 0.4, candUtil: 0.5}
	wideShape = diffShape{procs: 12, minStages: 2, maxStages: 5, tasks: 40, prefill: 90,
		addUtil: 0.008, moveUtil: 0.008, candUtil: 0.2}
	saturatedShape = diffShape{procs: 5, minStages: 1, maxStages: 3, tasks: 12, prefill: 60,
		addUtil: 0.12, moveUtil: 0.08, candUtil: 0.15, admitOnly: true}
)

// opSource supplies the harness's choices: a seeded generator in the tests,
// the fuzzer's bytes in FuzzLedgerOps.
type opSource interface {
	Intn(n int) int
	Float64() float64
}

// byteSource reads choices off a byte string, and zeros once it is used up.
// Float64 reaches both ends of [0, 1], so stages of zero utilization occur.
type byteSource struct{ b []byte }

func (s *byteSource) next() int {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return int(v)
}

func (s *byteSource) Intn(n int) int { return (s.next()<<8 | s.next()) % n }

func (s *byteSource) Float64() float64 { return float64(s.next()) / 255 }

// differentialHarness drives one ledger through a random operation sequence
// and, after every mutation, asserts that the indexed Admissible agrees with
// the full-scan referenceAdmissible on a batch of random candidate
// placements, and that CheckInvariants (which audits every index) holds. It
// returns the largest number of signature groups any processor indexed, how
// many candidates were accepted and rejected, how many times a step left a
// group's cached sum stale (strictly above its fresh sum), and how many
// RemoveTask calls withdrew a task holding several jobs (the per-task list
// walked past its head).
func differentialHarness(t *testing.T, rng opSource, ops int, shape diffShape) (maxGroups, accepted, rejected, stale, removedMany int) {
	t.Helper()
	procs := shape.procs
	l := NewLedger(procs)

	var live []JobKey
	nextJob := int64(0)
	// cur holds each task's current ref; a re-add hands out the next one.
	cur := make([]TaskRef, shape.tasks)
	for i := range cur {
		cur[i] = TaskRef(i)
	}
	readds := 0

	randPlacement := func(maxUtil float64) []PlacedStage {
		stages := shape.minStages + rng.Intn(shape.maxStages-shape.minStages+1)
		pl := make([]PlacedStage, stages)
		for s := range pl {
			pl[s] = PlacedStage{Stage: s, Proc: rng.Intn(procs), Util: rng.Float64() * maxUtil}
		}
		return pl
	}

	checkAgreement := func(step int, op string) {
		t.Helper()
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("step %d after %s: %v", step, op, err)
		}
		for p := range l.procGroups {
			maxGroups = max(maxGroups, len(l.procGroups[p]))
		}
		for _, g := range allGroups(l) {
			if g.cachedSum > l.freshSum(g) {
				stale++
			}
		}
		for q := 0; q < 4; q++ {
			cand := randPlacement(shape.candUtil)
			fast := l.Admissible(cand)
			ref := l.referenceAdmissible(cand)
			if fast != ref {
				t.Fatalf("step %d after %s: Admissible(%v) = %v, reference = %v",
					step, op, cand, fast, ref)
			}
			if fast {
				accepted++
			} else {
				rejected++
			}
		}
	}

	// addJob skips the admission check unless the shape asks for it, so
	// overloaded (violating) states are exercised too.
	addJob := func(step int) {
		ref := JobKey{Task: cur[rng.Intn(shape.tasks)], Job: nextJob}
		nextJob++
		kind := Aperiodic
		if rng.Intn(2) == 0 {
			kind = Periodic
		}
		permanent := rng.Intn(5) == 0
		pl := randPlacement(shape.addUtil)
		if shape.admitOnly && !l.Admissible(pl) {
			return
		}
		if err := l.AddJob(ref, kind, pl, permanent, time.Duration(step)*time.Millisecond); err != nil {
			t.Fatalf("step %d: AddJob: %v", step, err)
		}
		live = append(live, ref)
	}
	for i := 0; i < shape.prefill; i++ {
		addJob(0)
	}

	for step := 0; step < ops; step++ {
		var op string
		switch rng.Intn(11) {
		case 0, 1, 2:
			addJob(step)
			op = "AddJob"
		case 3, 4: // ExpireJob (sometimes of an unknown job).
			ref := JobKey{Task: 999, Job: -1}
			if len(live) > 0 && rng.Intn(8) != 0 {
				i := rng.Intn(len(live))
				ref = live[i]
				live = append(live[:i], live[i+1:]...)
			}
			l.ExpireJob(ref)
			op = "ExpireJob"
		case 5: // MarkComplete on a random live job and stage.
			if len(live) == 0 {
				continue
			}
			l.MarkComplete(live[rng.Intn(len(live))], rng.Intn(shape.maxStages))
			op = "MarkComplete"
		case 6: // ResetEntry via CompletedOn, as the idle resetters do.
			proc := rng.Intn(procs)
			for _, r := range l.CompletedOn(proc, rng.Intn(2) == 0) {
				l.ResetEntry(r)
			}
			op = "ResetEntry"
		case 7: // ResetEntry on a raw random reference (mostly misses).
			if len(live) == 0 {
				continue
			}
			l.ResetEntry(Entry[JobKey]{Ref: live[rng.Intn(len(live))], Stage: rng.Intn(shape.maxStages), Proc: rng.Intn(procs)})
			op = "ResetEntry-raw"
		case 8: // Relocate a live job.
			if len(live) == 0 {
				continue
			}
			ref := live[rng.Intn(len(live))]
			// Admissible with the job's old stages still in place is more
			// than the move needs, so an accepted move violates nothing.
			if pl := randPlacement(shape.moveUtil); !shape.admitOnly || l.Admissible(pl) {
				if err := l.Relocate(ref, pl); err != nil {
					t.Fatalf("step %d: Relocate(%s): %v", step, ref, err)
				}
			}
			op = "Relocate"
		case 9: // RemoveTask withdraws every job of one task.
			task := cur[rng.Intn(shape.tasks)]
			l.RemoveTask(task)
			kept := live[:0]
			for _, ref := range live {
				if ref.Task != task {
					kept = append(kept, ref)
				}
			}
			if len(live)-len(kept) > 1 {
				removedMany++
			}
			live = kept
			op = "RemoveTask"
		case 10: // Re-add a removed task under a fresh ref, then replay the removed incarnation.
			i := rng.Intn(shape.tasks)
			old := cur[i]
			// The new incarnation's job takes a number one of the old one's
			// jobs had, so a stale operation that reached it would hit it.
			job := nextJob
			kept := live[:0]
			for _, ref := range live {
				if ref.Task != old {
					kept = append(kept, ref)
				} else if job == nextJob {
					job = ref.Job
				}
			}
			if job == nextJob {
				nextJob++
			}
			live = kept
			l.RemoveTask(old)
			cur[i] = TaskRef(shape.tasks + readds) // what a binding does: a ref never handed out
			readds++
			ref := JobKey{Task: cur[i], Job: job}
			pl := randPlacement(shape.addUtil)
			if !shape.admitOnly || l.Admissible(pl) {
				if err := l.AddJob(ref, Aperiodic, pl, false, time.Duration(step)*time.Millisecond); err != nil {
					t.Fatalf("step %d: AddJob(%s) after the re-add: %v", step, ref, err)
				}
				live = append(live, ref)
			}
			utils, active := l.Utils(), l.ActiveJobs()
			stale := JobKey{Task: old, Job: job}
			if n := l.ExpireJob(stale); n != 0 {
				t.Fatalf("step %d: ExpireJob of the removed incarnation's %s removed %d contributions", step, stale, n)
			}
			if l.ResetReported(Entry[JobKey]{Ref: stale, Stage: 0, Proc: pl[0].Proc}) {
				t.Fatalf("step %d: ResetReported of the removed incarnation's %s released utilization", step, stale)
			}
			if err := l.Relocate(stale, randPlacement(shape.moveUtil)); err == nil {
				t.Fatalf("step %d: Relocate of the removed incarnation's %s found a job", step, stale)
			}
			for p, u := range l.Utils() {
				if math.Float64bits(u) != math.Float64bits(utils[p]) {
					t.Fatalf("step %d: replaying the removed incarnation moved processor %d: %g, was %g", step, p, u, utils[p])
				}
			}
			if got := l.ActiveJobs(); !slices.Equal(got, active) {
				t.Fatalf("step %d: replaying the removed incarnation changed the active jobs: %v, were %v", step, got, active)
			}
			op = "ReAdd"
		}
		checkAgreement(step, op)
	}
	return maxGroups, accepted, rejected, stale, removedMany
}

// TestLedgerDifferentialAdmissible is the differential property test for the
// indexed admission fast path: random AddJob/ExpireJob/MarkComplete/
// ResetEntry/Relocate/RemoveTask sequences, and re-adds of a removed task
// under a fresh ref whose replayed stale operations must all be no-ops, must
// leave the indexed Admissible decision-equivalent to the full-scan reference on every query, with all
// ledger indexes passing CheckInvariants at every step. The wide subtests
// must actually reach the perturbed-group scan at group counts the narrow
// ones never build, and the saturated ones must actually leave cached sums
// stale.
func TestLedgerDifferentialAdmissible(t *testing.T) {
	removedMany := 0
	for seed := int64(0); seed < 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, _, _, _, many := differentialHarness(t, rand.New(rand.NewSource(seed)), 120, narrowShape)
			removedMany += many
		})
	}
	if removedMany < 30 {
		t.Errorf("RemoveTask met a task holding several jobs %d times over 30 seeds, want at least one a seed", removedMany)
	}
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("wide/seed=%d", seed), func(t *testing.T) {
			groups, accepted, rejected, _, _ := differentialHarness(t, rand.New(rand.NewSource(seed)), 120, wideShape)
			if groups <= 16 {
				t.Errorf("at most %d groups on one processor, want more than 16", groups)
			}
			if accepted == 0 || rejected == 0 {
				t.Errorf("%d candidates accepted, %d rejected: want both outcomes", accepted, rejected)
			}
		})
	}
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("saturated/seed=%d", seed), func(t *testing.T) {
			_, accepted, rejected, stale, _ := differentialHarness(t, rand.New(rand.NewSource(seed)), 300, saturatedShape)
			if accepted == 0 || rejected == 0 {
				t.Errorf("%d candidates accepted, %d rejected: want both outcomes", accepted, rejected)
			}
			if stale == 0 {
				t.Error("no cached sum was ever stale: the shape does not reach the regime it is for")
			}
		})
	}
}

// FuzzLedgerOps decodes the input into the harness's operation sequence —
// the first byte picks the shape, the rest are its choices — and holds it to
// the same per-step agreement. The seed corpus is one generated byte string
// per shape.
func FuzzLedgerOps(f *testing.F) {
	shapes := []diffShape{narrowShape, wideShape, saturatedShape}
	for i := range shapes {
		data := make([]byte, 4096)
		rand.New(rand.NewSource(int64(i))).Read(data)
		data[0] = byte(i)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shape := shapes[int(data[0])%len(shapes)]
		// A step reads some forty bytes (an operation and four candidates).
		ops := min(len(data)/40, 200)
		differentialHarness(t, &byteSource{data[1:]}, ops, shape)
	})
}

// TestLedgerAdmissibleOverload pins the violated-counter behavior: once any
// in-flight job's condition is broken by force-added load, every candidate is
// rejected by both evaluations, and draining the overload restores agreement.
func TestLedgerAdmissibleOverload(t *testing.T) {
	l := NewLedger(2)
	ref := JobKey{Task: 2, Job: 0}
	pl := []PlacedStage{{Stage: 0, Proc: 0, Util: 0.5}}
	if err := l.AddJob(ref, Aperiodic, pl, false, time.Hour); err != nil {
		t.Fatal(err)
	}
	// Force the processor far past the bound without admission checks.
	heavy := JobKey{Task: 3, Job: 0}
	if err := l.AddJob(heavy, Aperiodic, []PlacedStage{{Stage: 0, Proc: 0, Util: 0.9}}, false, time.Hour); err != nil {
		t.Fatal(err)
	}
	cand := []PlacedStage{{Stage: 0, Proc: 1, Util: 0.01}}
	if l.Admissible(cand) {
		t.Error("candidate admitted while an in-flight job's condition is violated")
	}
	if l.referenceAdmissible(cand) {
		t.Error("reference admitted while an in-flight job's condition is violated")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	l.ExpireJob(heavy)
	if !l.Admissible(cand) {
		t.Error("candidate rejected after the overload drained")
	}
	if got, want := l.Admissible(cand), l.referenceAdmissible(cand); got != want {
		t.Errorf("fast %v disagrees with reference %v after drain", got, want)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerAdmissibleSkipsUntouchedJobs asserts the structural property the
// refactor is about: a candidate whose processors no ledger job visits must
// not trigger any per-group evaluation (only the O(1) violated check), so
// the decision cost is independent of the in-flight job count.
func TestLedgerAdmissibleSkipsUntouchedJobs(t *testing.T) {
	l := NewLedger(4)
	for i := 0; i < 500; i++ {
		ref := JobKey{Task: 0, Job: int64(i)}
		pl := []PlacedStage{{Stage: 0, Proc: i % 3, Util: 0.001}}
		if err := l.AddJob(ref, Aperiodic, pl, false, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	// 500 jobs collapse into 3 signature groups.
	if len(allGroups(l)) != 3 {
		t.Fatalf("got %d signature groups, want 3", len(allGroups(l)))
	}
	// A candidate on the untouched processor 3 perturbs no group.
	cand := []PlacedStage{{Stage: 0, Proc: 3, Util: 0.2}}
	if len(l.procGroups[3]) != 0 {
		t.Fatalf("processor 3 unexpectedly indexes %d groups", len(l.procGroups[3]))
	}
	if !l.Admissible(cand) || !l.referenceAdmissible(cand) {
		t.Error("trivially feasible candidate rejected")
	}
}
