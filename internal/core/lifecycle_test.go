package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sched"
)

// TestSimAddRemoveTasksMidRun pins the open-world tentpole on the simulation
// binding: tasks join and leave a running system, no admitted job is lost,
// the arrival accounting closes, and the ledger audit (run inside Run)
// passes. A removed ID can be re-registered and restarts job numbering.
func TestSimAddRemoveTasksMidRun(t *testing.T) {
	base := []*sched.Task{
		periodicTask("p0", 0, 10*time.Millisecond, 200*time.Millisecond, 1),
		aperiodicTask("a0", 1, 5*time.Millisecond, 150*time.Millisecond),
	}
	sim := mustSim(t, simCfg(Config{AC: StrategyPerTask, IR: StrategyPerTask, LB: StrategyPerTask}, 2), base)

	tenant := []*sched.Task{
		aperiodicTask("t0", 0, 4*time.Millisecond, 120*time.Millisecond),
		periodicTask("t1", 1, 6*time.Millisecond, 180*time.Millisecond),
	}
	if err := sim.At(10*time.Second, func() {
		if err := sim.AddTasks(tenant); err != nil {
			t.Errorf("mid-run AddTasks: %v", err)
			return
		}
		adms, err := sim.SubmitBatch([]string{"t0", "t1", "t0"})
		if err != nil {
			t.Errorf("mid-run SubmitBatch: %v", err)
			return
		}
		if len(adms) != 3 || adms[0].Job != 0 || adms[2].Job != 1 {
			t.Errorf("batch admissions = %+v", adms)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.At(20*time.Second, func() {
		if err := sim.RemoveTasks([]string{"t0", "p0"}); err != nil {
			t.Errorf("mid-run RemoveTasks: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Re-register a removed ID: a fresh slot, job numbering restarts at 0.
	if err := sim.At(25*time.Second, func() {
		fresh := aperiodicTask("t0", 1, 3*time.Millisecond, 100*time.Millisecond)
		if err := sim.AddTasks([]*sched.Task{fresh}); err != nil {
			t.Errorf("re-register removed ID: %v", err)
			return
		}
		adm, err := sim.Submit("t0")
		if err != nil {
			t.Errorf("submit to re-registered task: %v", err)
			return
		}
		if adm.Job != 0 {
			t.Errorf("re-registered task's first job = %d, want 0", adm.Job)
		}
	}); err != nil {
		t.Fatal(err)
	}

	m := sim.Run() // ledger audit panics on inconsistency
	if m.Total.Arrived == 0 || m.Total.Released == 0 {
		t.Fatalf("workload inert: %+v", m.Total)
	}
	if m.Total.Released != m.Total.Completed {
		t.Errorf("admitted jobs lost: released %d, completed %d", m.Total.Released, m.Total.Completed)
	}
	if m.Total.Arrived != m.Total.Released+m.Total.Skipped {
		t.Errorf("arrival accounting broken: arrived %d != released %d + skipped %d",
			m.Total.Arrived, m.Total.Released, m.Total.Skipped)
	}
	// The added tasks actually ran, and the removed period of p0 ended.
	if sim.Metrics().Task("t1").Released == 0 {
		t.Error("added task t1 never released a job")
	}
	assertNoStrandedLedgerEntries(t, sim)
	active := sim.TaskIDs()
	want := map[string]bool{"a0": true, "t1": true, "t0": true}
	if len(active) != len(want) {
		t.Errorf("active tasks = %v", active)
	}
	for _, id := range active {
		if !want[id] {
			t.Errorf("unexpected active task %q", id)
		}
	}
}

// assertNoStrandedLedgerEntries checks the ledger holds contributions only
// for tasks the binding still serves (removal must withdraw everything,
// including permanent per-task reservations).
func assertNoStrandedLedgerEntries(t *testing.T, sim *SimSystem) {
	t.Helper()
	if err := sim.Controller().Ledger().CheckInvariants(); err != nil {
		t.Errorf("ledger audit: %v", err)
	}
	active := make(map[sched.TaskRef]bool)
	for _, id := range sim.TaskIDs() {
		tr, _ := sim.tab.Lookup(id)
		active[tr] = true
	}
	for _, ref := range sim.Controller().Ledger().ActiveJobs() {
		if !active[ref.Task] {
			t.Errorf("ledger holds contributions for removed task: %v", ref)
		}
	}
}

// TestSimLifecycleSentinels pins the typed error surface of the open-world
// API: duplicate adds, unknown removals and post-Stop calls discriminate
// with errors.Is.
func TestSimLifecycleSentinels(t *testing.T) {
	base := []*sched.Task{periodicTask("p0", 0, 10*time.Millisecond, 200*time.Millisecond)}
	sim := mustSim(t, simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 1), base)

	if err := sim.AddTasks([]*sched.Task{periodicTask("p0", 0, time.Millisecond, 100*time.Millisecond)}); !errors.Is(err, ErrTaskExists) {
		t.Errorf("duplicate AddTasks error = %v, want ErrTaskExists", err)
	}
	if err := sim.RemoveTasks([]string{"ghost"}); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("unknown RemoveTasks error = %v, want ErrUnknownTask", err)
	}
	if _, err := sim.SubmitBatch([]string{"p0", "ghost"}); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("SubmitBatch with unknown ID error = %v, want ErrUnknownTask", err)
	}
	// Validation is all-or-nothing: the valid half of the failing batch must
	// not have been injected.
	if snap := sim.Snapshot(); snap.Arrived != 0 {
		t.Errorf("failed batch injected arrivals: %+v", snap)
	}
	// Out-of-range processors and invalid tasks are rejected atomically.
	if err := sim.AddTasks([]*sched.Task{periodicTask("far", 7, time.Millisecond, 100*time.Millisecond)}); err == nil {
		t.Error("AddTasks accepted out-of-range processor")
	}
	if len(sim.TaskIDs()) != 1 {
		t.Errorf("failed AddTasks mutated the task set: %v", sim.TaskIDs())
	}

	if err := sim.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddTasks(nil); !errors.Is(err, ErrStopped) {
		t.Errorf("AddTasks after Stop error = %v, want ErrStopped", err)
	}
	if err := sim.RemoveTasks([]string{"p0"}); !errors.Is(err, ErrStopped) {
		t.Errorf("RemoveTasks after Stop error = %v, want ErrStopped", err)
	}
	if _, err := sim.SubmitBatch([]string{"p0"}); !errors.Is(err, ErrStopped) {
		t.Errorf("SubmitBatch after Stop error = %v, want ErrStopped", err)
	}
	if _, err := sim.Watch(WatchOptions{}); !errors.Is(err, ErrStopped) {
		t.Errorf("Watch after Stop error = %v, want ErrStopped", err)
	}
}

// TestSimLifecyclePropertyRandomized is the open-world property test:
// randomized interleavings of AddTasks, RemoveTasks, Submit, SubmitBatch and
// mid-run Reconfigure leave the ledger audit clean (no stranded entries or
// signature groups — including none for removed tasks), never lose an
// admitted job, and keep the arrival accounting closed. Run under -race in
// CI alongside every other test.
func TestSimLifecyclePropertyRandomized(t *testing.T) {
	combos := []Config{
		{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone},
		{AC: StrategyPerTask, IR: StrategyPerTask, LB: StrategyPerTask},
		{AC: StrategyPerJob, IR: StrategyPerJob, LB: StrategyPerJob},
	}
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			combo := combos[rng.Intn(len(combos))]
			const procs = 3
			base := []*sched.Task{
				periodicTask("p0", 0, 8*time.Millisecond, 160*time.Millisecond, 1),
				periodicTask("p1", 1, 6*time.Millisecond, 240*time.Millisecond, 2),
				aperiodicTask("a0", 2, 5*time.Millisecond, 120*time.Millisecond),
			}
			horizon := 30 * time.Second
			sim := mustSim(t, SimConfig{Strategies: combo, NumProcs: procs, Horizon: horizon, Seed: seed}, base)

			watch, err := sim.Watch(WatchOptions{Buffer: 1 << 15})
			if err != nil {
				t.Fatal(err)
			}
			watchDone := make(chan struct{})
			orderOK := true
			go func() {
				defer close(watchDone)
				var last int64
				for ev := range watch.Events() {
					if ev.Seq <= last {
						orderOK = false
					}
					last = ev.Seq
				}
			}()

			// present tracks live task IDs as the scheduled ops will see them
			// (ops execute in schedule order at increasing times, so this
			// mirror is exact).
			present := map[string]bool{"p0": true, "p1": true, "a0": true}
			var pool []string // removable (non-base) task IDs in join order
			nextID := 0
			ops := 30 + rng.Intn(30)
			at := time.Duration(0)
			for i := 0; i < ops; i++ {
				at += time.Duration(rng.Int63n(int64(horizon) / int64(ops)))
				switch k := rng.Intn(10); {
				case k < 3: // tenant joins
					n := 1 + rng.Intn(3)
					tasks := make([]*sched.Task, 0, n)
					ids := make([]string, 0, n)
					for j := 0; j < n; j++ {
						id := fmt.Sprintf("dyn%d", nextID)
						nextID++
						dl := time.Duration(80+rng.Intn(160)) * time.Millisecond
						exec := time.Duration(1+rng.Intn(5)) * time.Millisecond
						proc := rng.Intn(procs)
						var task *sched.Task
						if rng.Intn(3) == 0 {
							task = periodicTask(id, proc, exec, dl)
						} else {
							task = aperiodicTask(id, proc, exec, dl)
						}
						tasks = append(tasks, task)
						ids = append(ids, id)
						present[id] = true
						pool = append(pool, id)
					}
					if err := sim.At(at, func() {
						if err := sim.AddTasks(tasks); err != nil {
							t.Errorf("AddTasks: %v", err)
						}
					}); err != nil {
						t.Fatal(err)
					}
				case k < 5: // oldest tenant leaves
					if len(pool) == 0 {
						continue
					}
					n := 1 + rng.Intn(min(2, len(pool)))
					ids := append([]string(nil), pool[:n]...)
					pool = pool[n:]
					for _, id := range ids {
						delete(present, id)
					}
					if err := sim.At(at, func() {
						if err := sim.RemoveTasks(ids); err != nil {
							t.Errorf("RemoveTasks(%v): %v", ids, err)
						}
					}); err != nil {
						t.Fatal(err)
					}
				case k < 6 && len(combos) > 0: // strategy swap rides along
					to := combos[rng.Intn(len(combos))]
					if err := sim.At(at, func() {
						if _, err := sim.ScheduleReconfig(sim.Engine().Now(), to); err != nil {
							t.Errorf("ScheduleReconfig: %v", err)
						}
					}); err != nil {
						t.Fatal(err)
					}
				default: // submissions at live tasks
					ids := make([]string, 0, 4)
					for id := range present {
						ids = append(ids, id)
						if len(ids) == 1+rng.Intn(4) {
							break
						}
					}
					if err := sim.At(at, func() {
						if len(ids) == 1 {
							if _, err := sim.Submit(ids[0]); err != nil {
								t.Errorf("Submit(%s): %v", ids[0], err)
							}
							return
						}
						if _, err := sim.SubmitBatch(ids); err != nil {
							t.Errorf("SubmitBatch(%v): %v", ids, err)
						}
					}); err != nil {
						t.Fatal(err)
					}
				}
			}

			m := sim.Run() // panics on ledger inconsistency
			if err := sim.Stop(); err != nil {
				t.Fatal(err)
			}
			<-watchDone
			if !orderOK {
				t.Error("watch stream delivered out of sequence order")
			}
			if m.Total.Released != m.Total.Completed {
				t.Errorf("admitted jobs lost: released %d, completed %d", m.Total.Released, m.Total.Completed)
			}
			if m.Total.Arrived != m.Total.Released+m.Total.Skipped {
				t.Errorf("arrival accounting broken: arrived %d != released %d + skipped %d",
					m.Total.Arrived, m.Total.Released, m.Total.Skipped)
			}
			assertNoStrandedLedgerEntries(t, sim)
		})
	}
}

// TestSimWatchOrderingAndFiltering pins the watch stream's contract: events
// deliver in strictly increasing Seq order, a job's Admitted precedes its
// Completed, lifecycle and reconfiguration events appear, and a kind filter
// delivers only the requested kinds.
func TestSimWatchOrderingAndFiltering(t *testing.T) {
	base := []*sched.Task{
		periodicTask("p0", 0, 10*time.Millisecond, 200*time.Millisecond),
		aperiodicTask("a0", 1, 5*time.Millisecond, 150*time.Millisecond),
	}
	from := Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}
	to := Config{AC: StrategyPerJob, IR: StrategyPerJob, LB: StrategyPerJob}
	sim := mustSim(t, simCfg(from, 2), base)

	all, err := sim.Watch(WatchOptions{Buffer: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	onlyTasks, err := sim.Watch(WatchOptions{
		Kinds:  []WatchKind{WatchTaskAdded, WatchTaskRemoved},
		Buffer: 256,
	})
	if err != nil {
		t.Fatal(err)
	}

	var allEvents, taskEvents []WatchEvent
	done := make(chan struct{}, 2)
	go func() {
		for ev := range all.Events() {
			allEvents = append(allEvents, ev)
		}
		done <- struct{}{}
	}()
	go func() {
		for ev := range onlyTasks.Events() {
			taskEvents = append(taskEvents, ev)
		}
		done <- struct{}{}
	}()

	if _, err := sim.ScheduleReconfig(10*time.Second, to); err != nil {
		t.Fatal(err)
	}
	if err := sim.At(15*time.Second, func() {
		if err := sim.AddTasks([]*sched.Task{aperiodicTask("t0", 0, 3*time.Millisecond, 100*time.Millisecond)}); err != nil {
			t.Errorf("AddTasks: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.At(22*time.Second, func() {
		if err := sim.RemoveTasks([]string{"t0"}); err != nil {
			t.Errorf("RemoveTasks: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if err := sim.Stop(); err != nil {
		t.Fatal(err)
	}
	<-done
	<-done

	if all.Dropped() != 0 {
		t.Errorf("watch stream dropped %d events", all.Dropped())
	}
	var lastSeq int64
	admitted := make(map[string]int) // task#job → index of Admitted
	counts := make(map[WatchKind]int)
	for i, ev := range allEvents {
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d out of order: seq %d after %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		counts[ev.Kind]++
		key := fmt.Sprintf("%s#%d", ev.Task, ev.Job)
		switch ev.Kind {
		case WatchAdmitted:
			admitted[key] = i
			if len(ev.Placement) == 0 {
				t.Errorf("admitted event without placement: %+v", ev)
			}
		case WatchCompleted:
			if _, ok := admitted[key]; !ok {
				t.Errorf("completion before admission for %s", key)
			}
		}
	}
	if counts[WatchAdmitted] == 0 || counts[WatchCompleted] == 0 {
		t.Errorf("missing job events: %v", counts)
	}
	if counts[WatchTaskAdded] != 1 || counts[WatchTaskRemoved] != 1 {
		t.Errorf("task lifecycle events = %v", counts)
	}
	if counts[WatchReconfigured] != 1 {
		t.Errorf("reconfigured events = %d, want 1", counts[WatchReconfigured])
	}
	for _, ev := range allEvents {
		if ev.Kind == WatchReconfigured && (ev.Config != to || ev.Epoch != 1) {
			t.Errorf("reconfigured event = %+v", ev)
		}
	}

	if len(taskEvents) != 2 {
		t.Fatalf("filtered stream got %d events, want 2: %+v", len(taskEvents), taskEvents)
	}
	if taskEvents[0].Kind != WatchTaskAdded || taskEvents[1].Kind != WatchTaskRemoved {
		t.Errorf("filtered kinds = %v, %v", taskEvents[0].Kind, taskEvents[1].Kind)
	}
	if taskEvents[0].Task != "t0" || taskEvents[1].Task != "t0" {
		t.Errorf("filtered tasks = %+v", taskEvents)
	}
}

// TestSimReaddedTaskKeepsItsContribution removes a task while its job is in
// flight, re-adds the name and submits again: what is still pending for the
// removed incarnation must not reach the new one's job of the same number.
// Both used to resolve through the name, so the old expiry (J_N_N) or the old
// idle report (J_J_N) withdrew the new job's contribution before its time.
func TestSimReaddedTaskKeepsItsContribution(t *testing.T) {
	const deadline = 100 * time.Millisecond
	for _, tc := range []struct {
		name     string
		cfg      Config
		oldExec  time.Duration
		resubmit time.Duration // when the new incarnation's job 0 arrives
		check    time.Duration // when its contribution must still be held
	}{
		// The old job's expiry fires at 100 ms; the new job's is at 106 ms.
		{"expiry", Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 10 * time.Millisecond, 6 * time.Millisecond, 101 * time.Millisecond},
		// The old job completes at ~20.8 ms and its idle report lands at
		// ~21.1 ms, after the new job was admitted (~21.0 ms) and before it
		// is released (~21.3 ms).
		{"idle report", Config{AC: StrategyPerJob, IR: StrategyPerJob, LB: StrategyNone}, 20 * time.Millisecond, 20500 * time.Microsecond, 21200 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simCfg(tc.cfg, 1)
			cfg.ExternalArrivals = true
			sim := mustSim(t, cfg, []*sched.Task{aperiodicTask("a", 0, tc.oldExec, deadline)})
			at := func(when time.Duration, fn func()) {
				t.Helper()
				if err := sim.At(when, fn); err != nil {
					t.Fatal(err)
				}
			}
			submit := func() {
				if _, err := sim.Submit("a"); err != nil {
					t.Error(err)
				}
			}
			at(0, submit)
			at(5*time.Millisecond, func() {
				if err := sim.RemoveTasks([]string{"a"}); err != nil {
					t.Error(err)
				}
			})
			at(6*time.Millisecond, func() {
				if err := sim.AddTasks([]*sched.Task{aperiodicTask("a", 0, 10*time.Millisecond, deadline)}); err != nil {
					t.Error(err)
				}
			})
			at(tc.resubmit, submit)
			var util float64
			at(tc.check, func() { util = sim.Controller().Ledger().Util(0) })
			m := sim.Run()
			if want := 0.1; !within(util, want) {
				t.Errorf("Util(0) at %v = %g, want the new job's %g", tc.check, util, want)
			}
			if m.Total.Released != 2 || m.Total.Completed != 2 {
				t.Errorf("released %d, completed %d; want both jobs", m.Total.Released, m.Total.Completed)
			}
		})
	}
}
