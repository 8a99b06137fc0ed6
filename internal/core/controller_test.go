package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/sched"
	"repro/internal/workload"
)

func periodicTask(id string, proc int, exec, deadline time.Duration, replicas ...int) *sched.Task {
	return &sched.Task{
		ID:       id,
		Kind:     sched.Periodic,
		Period:   deadline,
		Deadline: deadline,
		Priority: 1,
		Subtasks: []sched.Subtask{{Index: 0, Exec: exec, Processor: proc, Replicas: replicas}},
	}
}

func aperiodicTask(id string, proc int, exec, deadline time.Duration, replicas ...int) *sched.Task {
	return &sched.Task{
		ID:               id,
		Kind:             sched.Aperiodic,
		Deadline:         deadline,
		MeanInterarrival: deadline,
		Priority:         1,
		Subtasks:         []sched.Subtask{{Index: 0, Exec: exec, Processor: proc, Replicas: replicas}},
	}
}

func mustController(t *testing.T, cfg Config, procs int) *Controller {
	t.Helper()
	c, err := NewController(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewControllerRejectsInvalid(t *testing.T) {
	if _, err := NewController(Config{AC: StrategyPerTask, IR: StrategyPerJob, LB: StrategyNone}, 2); err == nil {
		t.Error("NewController accepted contradictory config")
	}
	if _, err := NewController(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 0); err == nil {
		t.Error("NewController accepted zero processors")
	}
}

func TestPerTaskACAdmitsOnceAndReserves(t *testing.T) {
	cfg := Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}
	c := mustController(t, cfg, 1)
	// 40% synthetic utilization on its single processor.
	tk := periodicTask("p", 0, 400*time.Millisecond, time.Second)

	d := c.Arrive(tk, 0, 0)
	if !d.Accept || !d.Reserved || c.Stats.Tests != 1 {
		t.Fatalf("first arrival decision = %+v after %d tests, want accepted+reserved after one", d, c.Stats.Tests)
	}
	if got := c.Ledger().Util(0); got != onGrid(0.4) {
		t.Errorf("Util(0) = %g after admission, want 0.4", got)
	}

	// Later jobs release without testing and without new contributions.
	d = c.Arrive(tk, 1, time.Second)
	if !d.Accept || d.Reserved || c.Stats.Tests != 1 {
		t.Fatalf("second arrival decision = %+v after %d tests, want accepted without a second", d, c.Stats.Tests)
	}
	if got := c.Ledger().Util(0); got != onGrid(0.4) {
		t.Errorf("Util(0) = %g after second job, want 0.4 (reservation held)", got)
	}
	if c.Stats.Tests != 1 {
		t.Errorf("Tests = %d, want 1", c.Stats.Tests)
	}

	// Expiry must not release the reservation.
	c.ExpireJob(sched.JobRef{Task: "p", Job: 0})
	if got := c.Ledger().Util(0); got != onGrid(0.4) {
		t.Errorf("Util(0) = %g after expiry, want 0.4", got)
	}
}

func TestPerTaskACRejectsForLifetime(t *testing.T) {
	cfg := Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}
	c := mustController(t, cfg, 1)
	// First task reserves 0.5; the second (0.3) fails the combined test:
	// f(0.8) = 2.4 > 1.
	big := periodicTask("big", 0, 500*time.Millisecond, time.Second)
	small := periodicTask("small", 0, 300*time.Millisecond, time.Second)

	if d := c.Arrive(big, 0, 0); !d.Accept {
		t.Fatal("big task rejected on empty ledger")
	}
	if d := c.Arrive(small, 0, 0); d.Accept {
		t.Fatal("small task admitted despite infeasible combined load")
	}
	// Rejection is remembered: later jobs are rejected without re-testing.
	tests := c.Stats.Tests
	if d := c.Arrive(small, 1, time.Second); d.Accept {
		t.Error("job of rejected task accepted")
	}
	if c.Stats.Tests != tests {
		t.Error("rejected per-task periodic task was re-tested")
	}
}

func TestPerJobACTestsEveryJobAndExpires(t *testing.T) {
	cfg := Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}
	c := mustController(t, cfg, 1)
	tk := periodicTask("p", 0, 400*time.Millisecond, time.Second)

	d := c.Arrive(tk, 0, 0)
	if !d.Accept || d.Reserved || c.Stats.Tests != 1 {
		t.Fatalf("decision = %+v after %d tests, want accepted after one, not reserved", d, c.Stats.Tests)
	}
	// Before expiry, an identical second job stacks to 0.8: f(0.8) > 1, so
	// it is skipped.
	if d := c.Arrive(tk, 1, 100*time.Millisecond); d.Accept {
		t.Error("job admitted despite stacked utilization")
	}
	// After the first job expires, the next is admitted again.
	c.ExpireJob(sched.JobRef{Task: "p", Job: 0})
	if got := c.Ledger().Util(0); got != 0 {
		t.Fatalf("Util(0) = %g after expiry, want 0", got)
	}
	if d := c.Arrive(tk, 2, time.Second); !d.Accept {
		t.Error("job rejected after previous contribution expired")
	}
	if c.Stats.Tests != 3 {
		t.Errorf("Tests = %d, want 3", c.Stats.Tests)
	}
}

func TestAperiodicAlwaysTested(t *testing.T) {
	for _, ac := range []Strategy{StrategyPerTask, StrategyPerJob} {
		cfg := Config{AC: ac, IR: StrategyNone, LB: StrategyNone}
		c := mustController(t, cfg, 1)
		tk := aperiodicTask("a", 0, 300*time.Millisecond, time.Second)
		for job := int64(0); job < 3; job++ {
			before := c.Stats.Tests
			d := c.Arrive(tk, job, time.Duration(job)*time.Second)
			if c.Stats.Tests != before+1 {
				t.Errorf("AC=%v: aperiodic job %d not tested", ac, job)
			}
			if d.Reserved {
				t.Errorf("AC=%v: aperiodic job %d reserved permanently", ac, job)
			}
			c.ExpireJob(sched.JobRef{Task: "a", Job: job})
		}
	}
}

func TestLBNonePlacesAtHome(t *testing.T) {
	cfg := Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}
	c := mustController(t, cfg, 3)
	tk := periodicTask("p", 1, 100*time.Millisecond, time.Second, 2)
	d := c.Arrive(tk, 0, 0)
	if !d.Accept || d.Placement[0].Proc != 1 || d.Relocated {
		t.Errorf("decision = %+v, want home placement on processor 1", d)
	}
}

func TestLBChoosesLowestUtilizationReplica(t *testing.T) {
	cfg := Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyPerJob}
	c := mustController(t, cfg, 2)
	// Pre-load processor 0 with an unrelated task.
	bg := periodicTask("bg", 0, 300*time.Millisecond, time.Second)
	if d := c.Arrive(bg, 0, 0); !d.Accept {
		t.Fatal("background task rejected")
	}
	// The new task's home is processor 0 but its replica on processor 1 is
	// idle: the heuristic must relocate it.
	tk := aperiodicTask("a", 0, 200*time.Millisecond, time.Second, 1)
	d := c.Arrive(tk, 0, 0)
	if !d.Accept {
		t.Fatal("task rejected")
	}
	if d.Placement[0].Proc != 1 || !d.Relocated {
		t.Errorf("decision = %+v, want relocation to processor 1", d)
	}
	if c.Stats.Relocations != 1 {
		t.Errorf("Relocations = %d, want 1", c.Stats.Relocations)
	}
}

func TestLBHomeWinsTies(t *testing.T) {
	cfg := Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyPerJob}
	c := mustController(t, cfg, 2)
	tk := aperiodicTask("a", 0, 200*time.Millisecond, time.Second, 1)
	d := c.Arrive(tk, 0, 0)
	if d.Placement[0].Proc != 0 || d.Relocated {
		t.Errorf("decision = %+v, want home placement on tie", d)
	}
}

// TestLBHomeWinsTiesAfterDrain pins the tie rule on a drained processor:
// two jobs admitted on the home processor and expired in admission order
// leave it at exactly zero, so the next job, whose home and replica are both
// idle, stays at home. A floating-point ledger read 0.1 + 0.2 − 0.1 − 0.2 =
// 2.8e-17 there and sent the stage to the replica.
func TestLBHomeWinsTiesAfterDrain(t *testing.T) {
	cfg := Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyPerJob}
	c := mustController(t, cfg, 2)
	for _, tk := range []*sched.Task{
		aperiodicTask("a", 0, 100*time.Millisecond, time.Second),
		aperiodicTask("b", 0, 200*time.Millisecond, time.Second),
	} {
		if d := c.Arrive(tk, 0, 0); !d.Accept {
			t.Fatalf("%s rejected", tk.ID)
		}
	}
	c.ExpireJob(sched.JobRef{Task: "a", Job: 0})
	c.ExpireJob(sched.JobRef{Task: "b", Job: 0})
	if got := c.Ledger().Util(0); got != 0 {
		t.Errorf("Util(0) = %g after the drain, want 0", got)
	}
	d := c.Arrive(aperiodicTask("c", 0, 200*time.Millisecond, time.Second, 1), 0, time.Second)
	if !d.Accept || d.Placement[0].Proc != 0 || d.Relocated {
		t.Errorf("decision = %+v, want home placement on the tie", d)
	}
}

func TestLBPerTaskKeepsFirstAssignment(t *testing.T) {
	cfg := Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyPerTask}
	c := mustController(t, cfg, 2)
	// First arrival balances to processor 1 (home 0 is pre-loaded).
	bg := periodicTask("bg", 0, 300*time.Millisecond, time.Second)
	if d := c.Arrive(bg, 0, 0); !d.Accept {
		t.Fatal("background rejected")
	}
	tk := periodicTask("p", 0, 100*time.Millisecond, time.Second, 1)
	d0 := c.Arrive(tk, 0, 0)
	if !d0.Accept || d0.Placement[0].Proc != 1 {
		t.Fatalf("first decision = %+v, want placement on processor 1", d0)
	}
	// Clear the background load; per-task LB must still reuse the original
	// assignment even though processor 0 now looks better.
	c.ExpireJob(sched.JobRef{Task: "bg", Job: 0})
	c.ExpireJob(sched.JobRef{Task: "p", Job: 0})
	d1 := c.Arrive(tk, 1, time.Second)
	if !d1.Accept || d1.Placement[0].Proc != 1 {
		t.Errorf("second decision = %+v, want sticky placement on processor 1", d1)
	}
}

func TestPerTaskACWithLBPerJobRelocatesReservation(t *testing.T) {
	cfg := Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyPerJob}
	c := mustController(t, cfg, 2)
	tk := periodicTask("p", 0, 200*time.Millisecond, time.Second, 1)
	if d := c.Arrive(tk, 0, 0); !d.Accept || d.Placement[0].Proc != 0 {
		t.Fatalf("first arrival not admitted at home")
	}
	// Pre-load home processor so the next job balances away; the permanent
	// reservation must follow.
	bg := aperiodicTask("bg", 0, 300*time.Millisecond, time.Second)
	if d := c.Arrive(bg, 0, 0); !d.Accept {
		t.Fatal("background rejected")
	}
	tests := c.Stats.Tests
	d := c.Arrive(tk, 1, time.Second)
	if !d.Accept || c.Stats.Tests != tests {
		t.Fatalf("decision = %+v after %d tests, want an accept without one", d, c.Stats.Tests-tests)
	}
	if d.Placement[0].Proc != 1 {
		t.Fatalf("placement = %+v, want relocation to processor 1", d.Placement)
	}
	if got := c.Ledger().Util(1); got != onGrid(0.2) {
		t.Errorf("Util(1) = %g, want 0.2 (reservation moved)", got)
	}
	if got := c.Ledger().Util(0); got != onGrid(0.3) {
		t.Errorf("Util(0) = %g, want 0.3 (background only)", got)
	}
}

func TestIdleResetPath(t *testing.T) {
	cfg := Config{AC: StrategyPerJob, IR: StrategyPerJob, LB: StrategyNone}
	c := mustController(t, cfg, 1)
	tk := periodicTask("p", 0, 400*time.Millisecond, time.Second)
	if d := c.Arrive(tk, 0, 0); !d.Accept {
		t.Fatal("task rejected")
	}
	ref := sched.JobRef{Task: "p", Job: 0}
	n := c.IdleReset([]sched.EntryRef{{Ref: ref, Stage: 0, Proc: 0}})
	if n != 1 {
		t.Fatalf("IdleReset removed %d contributions, want 1", n)
	}
	if got := c.Ledger().Util(0); got != 0 {
		t.Errorf("Util(0) = %g after idle reset, want 0", got)
	}
	if c.Stats.IdleResets != 1 {
		t.Errorf("Stats.IdleResets = %d, want 1", c.Stats.IdleResets)
	}
	// Resetting an unknown job is harmless.
	if n := c.IdleReset([]sched.EntryRef{{Ref: sched.JobRef{Task: "x", Job: 1}, Stage: 0, Proc: 0}}); n != 0 {
		t.Errorf("IdleReset of unknown job removed %d", n)
	}
}

// onGrid is the utilization the ledger holds for one stage of C/D u: u
// rounded up to the ledger's unit. Tests compare Util to it exactly.
func onGrid(u float64) float64 {
	l := sched.NewLedger(1)
	if err := l.AddJob(sched.JobKey{}, sched.Aperiodic, []sched.PlacedStage{{Util: u}}, false, 0); err != nil {
		panic(err)
	}
	return l.Util(0)
}

func within(got, want float64) bool {
	d := got - want
	return d < 1e-9 && d > -1e-9
}

// TestControllerConcurrentFirstArrivals sends eight goroutines through the
// first arrivals of the same aperiodic and periodic tasks at once. Each
// task's record is created once: every decision under LB-none hands out the
// same home placement. And per task the decisions are the ones a serial run
// makes: all accepted on the home processors, tested per job under J_N_N and
// exactly once (the reservation) under T_N_N.
func TestControllerConcurrentFirstArrivals(t *testing.T) {
	const procs, workers = 4, 8
	var tasks []*sched.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks,
			aperiodicTask(fmt.Sprintf("a%d", i), i%procs, time.Microsecond, time.Second),
			periodicTask(fmt.Sprintf("p%d", i), i%procs, time.Microsecond, time.Second))
	}
	type summary struct {
		accepted, reserved int
		placement          []sched.PlacedStage
	}
	// summarize folds one task's decisions, one per worker.
	summarize := func(t *testing.T, ds []Decision) summary {
		t.Helper()
		var s summary
		for _, d := range ds {
			if d.Accept {
				s.accepted++
			}
			if d.Reserved {
				s.reserved++
			}
			if s.placement == nil {
				s.placement = d.Placement
			} else if &d.Placement[0] != &s.placement[0] {
				t.Errorf("decisions hand out two home placements: %v at %p and %p", d.Placement, &d.Placement[0], &s.placement[0])
			}
		}
		return s
	}
	for _, combo := range []Config{
		{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone},
		{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone},
	} {
		t.Run(combo.String(), func(t *testing.T) {
			// got[i][w] is worker w's arrival of task i, job w·len(tasks)+i.
			run := func(c *Controller, concurrent bool) [][]Decision {
				got := make([][]Decision, len(tasks))
				for i := range got {
					got[i] = make([]Decision, workers)
				}
				arrive := func(w int) {
					for i, task := range tasks {
						got[i][w] = c.Arrive(task, int64(w*len(tasks)+i), 0)
					}
				}
				if !concurrent {
					for w := 0; w < workers; w++ {
						arrive(w)
					}
					return got
				}
				start := make(chan struct{})
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						arrive(w)
					}()
				}
				close(start)
				wg.Wait()
				return got
			}
			serial := mustController(t, combo, procs)
			want := run(serial, false)
			c := mustController(t, combo, procs)
			got := run(c, true)
			if c.Stats.Tests != serial.Stats.Tests {
				t.Errorf("%d admission tests, %d in a serial run", c.Stats.Tests, serial.Stats.Tests)
			}
			for i, task := range tasks {
				w, g := summarize(t, want[i]), summarize(t, got[i])
				if w.accepted != workers || g.accepted != w.accepted || g.reserved != w.reserved ||
					!slices.Equal(g.placement, w.placement) {
					t.Errorf("%s: concurrent %+v, serial %+v", task.ID, g, w)
				}
			}
			n := 0
			for _, r := range c.recs {
				if r != nil {
					n++
				}
			}
			if n != len(tasks) {
				t.Errorf("%d records for %d tasks", n, len(tasks))
			}
			if err := c.Ledger().CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestControllerReconfigureDuringDecisions decides aperiodic and periodic
// jobs on four goroutines while a fifth cycles the controller through all
// three LB strategies, in and out of per-task admission, and removes other
// tasks. Each decision, reconfiguration and removal is one critical section
// under the controller's lock, so the run is free of data races (run it with
// -race) and leaves the ledger consistent.
func TestControllerReconfigureDuringDecisions(t *testing.T) {
	const procs, workers, jobs, cycles = 4, 4, 100, 20
	var tasks, removed []*sched.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks,
			aperiodicTask(fmt.Sprintf("a%d", i), i%procs, time.Microsecond, time.Second, (i+1)%procs),
			periodicTask(fmt.Sprintf("p%d", i), i%procs, time.Microsecond, time.Second, (i+1)%procs))
		removed = append(removed, periodicTask(fmt.Sprintf("r%d", i), i%procs, time.Microsecond, time.Second, (i+1)%procs))
	}
	// Task i has ref i; the removed tasks follow the decided ones.
	c := mustController(t, Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}, procs)
	for i, task := range removed {
		if d, _, _ := c.Decide(sched.JobKey{Task: sched.TaskRef(len(tasks) + i)}, task, 0, 0); !d.Accept {
			t.Fatalf("%s rejected", task.ID)
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for n := 0; n < jobs; n++ {
				for i, task := range tasks {
					k := sched.JobKey{Task: sched.TaskRef(i), Job: int64(w*jobs + n)}
					c.Decide(k, task, time.Duration(n)*time.Millisecond, time.Duration(n)*time.Millisecond)
					c.Location(k.Task, task)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for n := 0; n < cycles; n++ {
			for _, lb := range []Strategy{StrategyNone, StrategyPerTask, StrategyPerJob} {
				for _, ac := range []Strategy{StrategyPerTask, StrategyPerJob} {
					if _, err := c.Reconfigure(Config{AC: ac, IR: StrategyNone, LB: lb}); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if n < len(removed) {
				c.RemoveTask(sched.TaskRef(len(tasks) + n))
			}
		}
	}()
	close(start)
	wg.Wait()
	if c.Stats.Tests == 0 || c.Stats.Reconfigs != 6*cycles {
		t.Errorf("%d admission tests and %d reconfigurations, want some and %d", c.Stats.Tests, c.Stats.Reconfigs, 6*cycles)
	}
	if err := c.Ledger().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestDroppedControllerIsCollected runs a J_J_J simulation, whose every
// placement is balanced, drops it, and requires its controller (and with it
// the ledger) to be unreachable after one GC: nothing outside the system may
// hold it, the runtime's list of sync.Pools included.
func TestDroppedControllerIsCollected(t *testing.T) {
	tasks, err := workload.Generate(workload.Figure5Params(0))
	if err != nil {
		t.Fatal(err)
	}
	ref := runAndDropJJJ(t, tasks)
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a dropped simulation's controller survived one GC")
	}
}

// runAndDropJJJ runs tasks under J_J_J and returns only a weak pointer to
// the simulation's controller.
//
//go:noinline
func runAndDropJJJ(t *testing.T, tasks []*sched.Task) weak.Pointer[Controller] {
	cfg, err := ParseConfig("J_J_J")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimSystem(SimConfig{Strategies: cfg, NumProcs: 5, Horizon: 30 * time.Second, Seed: 1}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if sim.Controller().Stats.Tests == 0 {
		t.Fatal("the simulation tested no job")
	}
	return weak.Make(sim.Controller())
}

// TestHeldKeyRefusalIsCounted decides one job key twice: the ledger still
// holds the first admission, so the second is refused, and counted as a
// held key as well as a rejection rather than passing as a bound refusal.
func TestHeldKeyRefusalIsCounted(t *testing.T) {
	c := mustController(t, Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 1)
	tk := aperiodicTask("a", 0, time.Millisecond, time.Second)
	k := sched.JobKey{Task: 0, Job: 7}
	if d, _, _ := c.Decide(k, tk, 0, 0); !d.Accept {
		t.Fatalf("first decision = %+v, want accepted", d)
	}
	if d, _, _ := c.Decide(k, tk, time.Millisecond, time.Millisecond); d.Accept {
		t.Fatalf("second decision of the same key = %+v, want refused", d)
	}
	if c.Stats.HeldKeys != 1 || c.Stats.Rejects != 1 || c.Stats.Accepts != 1 {
		t.Errorf("stats = %+v, want one accept, one reject, one held key", c.Stats)
	}
}

// TestDecisionPlacementAliasing pins what Decision.Placement promises about
// ownership. Under LB-per-job each decision's placement is the job's own:
// two consecutive decisions for one task share no memory, so writing one,
// or appending to it, leaves the other as it was. Under LB-per-task a
// periodic task's memo is the one slice every job of the task gets.
func TestDecisionPlacementAliasing(t *testing.T) {
	twoStage := func() *sched.Task {
		tk := periodicTask("p", 0, time.Millisecond, time.Second, 1)
		tk.Subtasks = append(tk.Subtasks, sched.Subtask{Index: 1, Exec: time.Millisecond, Processor: 2, Replicas: []int{3}})
		return tk
	}
	t.Run("J_J_J", func(t *testing.T) {
		c := mustController(t, Config{AC: StrategyPerJob, IR: StrategyPerJob, LB: StrategyPerJob}, 4)
		tk := twoStage()
		d0, d1 := c.Arrive(tk, 0, 0), c.Arrive(tk, 1, time.Millisecond)
		if !d0.Accept || !d1.Accept {
			t.Fatalf("decisions %+v and %+v, want both accepted", d0, d1)
		}
		want := slices.Clone(d1.Placement)
		_ = append(d0.Placement, sched.PlacedStage{Stage: 9, Proc: 9, Util: 0.9})
		for i := range d0.Placement {
			d0.Placement[i] = sched.PlacedStage{Stage: -1, Proc: -1, Util: -1}
		}
		if !slices.Equal(d1.Placement, want) {
			t.Errorf("writing job 0's placement changed job 1's: %+v, was %+v", d1.Placement, want)
		}
	})
	t.Run("J_N_T", func(t *testing.T) {
		c := mustController(t, Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyPerTask}, 4)
		tk := twoStage()
		var first []sched.PlacedStage
		for job := int64(0); job < 4; job++ {
			d := c.Arrive(tk, job, time.Duration(job)*time.Second)
			if !d.Accept {
				t.Fatalf("job %d rejected", job)
			}
			if job == 0 {
				first = d.Placement
			} else if &d.Placement[0] != &first[0] || len(d.Placement) != len(first) {
				t.Errorf("job %d got placement %p, want the task's memo %p", job, &d.Placement[0], &first[0])
			}
			c.ExpireJob(sched.JobRef{Task: "p", Job: job})
		}
	})
}
