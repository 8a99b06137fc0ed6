package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

func simCfg(strategies Config, procs int) SimConfig {
	return SimConfig{
		Strategies: strategies,
		NumProcs:   procs,
		Horizon:    30 * time.Second,
		Seed:       1,
	}
}

func mustSim(t *testing.T, cfg SimConfig, tasks []*sched.Task) *SimSystem {
	t.Helper()
	s, err := NewSimSystem(cfg, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimValidation(t *testing.T) {
	good := []*sched.Task{periodicTask("p", 0, 10*time.Millisecond, time.Second)}
	if _, err := NewSimSystem(simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 0), good); err == nil {
		t.Error("accepted zero processors")
	}
	dupe := []*sched.Task{
		periodicTask("p", 0, 10*time.Millisecond, time.Second),
		periodicTask("p", 0, 10*time.Millisecond, time.Second),
	}
	if _, err := NewSimSystem(simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 1), dupe); err == nil {
		t.Error("accepted duplicate task IDs")
	}
	farProc := []*sched.Task{periodicTask("p", 5, 10*time.Millisecond, time.Second)}
	if _, err := NewSimSystem(simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 2), farProc); err == nil {
		t.Error("accepted out-of-range processor")
	}
	noMean := []*sched.Task{{
		ID: "a", Kind: sched.Aperiodic, Deadline: time.Second,
		Subtasks: []sched.Subtask{{Exec: time.Millisecond}},
	}}
	if _, err := NewSimSystem(simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 1), noMean); err == nil {
		t.Error("accepted aperiodic task without mean interarrival")
	}
}

func TestSimSinglePeriodicTaskAllReleased(t *testing.T) {
	// A lone feasible periodic task must have every job accepted, released,
	// and completed within its deadline, under any strategy combination.
	task := &sched.Task{
		ID: "p", Kind: sched.Periodic,
		Period: 100 * time.Millisecond, Deadline: 100 * time.Millisecond,
		Subtasks: []sched.Subtask{
			{Index: 0, Exec: 10 * time.Millisecond, Processor: 0},
			{Index: 1, Exec: 10 * time.Millisecond, Processor: 1},
		},
	}
	for _, combo := range AllCombinations() {
		m := mustSim(t, simCfg(combo, 2), []*sched.Task{task}).Run()
		// 30s horizon at 100ms period: 301 arrivals (t=0 .. t=30s).
		if m.Total.Arrived != 301 {
			t.Fatalf("%s: arrived = %d, want 301", combo, m.Total.Arrived)
		}
		if m.Total.Released != m.Total.Arrived {
			t.Errorf("%s: released %d of %d jobs", combo, m.Total.Released, m.Total.Arrived)
		}
		if m.Total.Completed != m.Total.Arrived {
			t.Errorf("%s: completed %d of %d jobs", combo, m.Total.Completed, m.Total.Arrived)
		}
		if m.Total.Missed != 0 {
			t.Errorf("%s: %d deadline misses", combo, m.Total.Missed)
		}
		if r := m.AcceptedUtilizationRatio(); !within(r, 1) {
			t.Errorf("%s: accepted utilization ratio = %g, want 1", combo, r)
		}
	}
}

func TestSimOverloadCausesSkips(t *testing.T) {
	// Two identical single-stage tasks at 0.45 utilization each on one
	// processor: f(0.9) = 4.95 > 1 so they cannot be admitted together under
	// per-job AC without resetting; some jobs must be skipped.
	mk := func(id string) *sched.Task {
		return periodicTask(id, 0, 450*time.Millisecond, time.Second)
	}
	cfg := simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 1)
	m := mustSim(t, cfg, []*sched.Task{mk("p1"), mk("p2")}).Run()
	if m.Total.Skipped == 0 {
		t.Error("overloaded workload had no skipped jobs")
	}
	if m.Total.Released == 0 {
		t.Error("overloaded workload released nothing")
	}
	if r := m.AcceptedUtilizationRatio(); r >= 1 {
		t.Errorf("accepted utilization ratio = %g, want < 1", r)
	}
	if m.Total.Missed != 0 {
		t.Errorf("admitted jobs missed deadlines: %d", m.Total.Missed)
	}
}

func TestSimIdleResettingImprovesAcceptance(t *testing.T) {
	// Two tasks whose arrivals interleave by half a period. Without
	// resetting, the first task's contribution is held until each job's
	// deadline, so the second task always tests against f(0.9) > 1 and is
	// skipped. With IR per job, the first task's subjob completes and its
	// contribution is reset before the second task arrives, so both are
	// admitted — the paper's motivation for the resetting rule.
	mk := func(id string, phase time.Duration) *sched.Task {
		tk := periodicTask(id, 0, 450*time.Millisecond, time.Second)
		tk.Phase = phase
		return tk
	}
	tasks := []*sched.Task{mk("p1", 0), mk("p2", 500*time.Millisecond)}

	noIR := mustSim(t, simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 1), tasks).Run()
	withIR := mustSim(t, simCfg(Config{AC: StrategyPerJob, IR: StrategyPerJob, LB: StrategyNone}, 1), tasks).Run()

	if got := noIR.AcceptedUtilizationRatio(); got > 0.6 {
		t.Errorf("no-IR ratio = %g, want ~0.5 (second task starved)", got)
	}
	if got := withIR.AcceptedUtilizationRatio(); got < 0.95 {
		t.Errorf("IR-per-job ratio = %g, want ~1 (resetting admits both)", got)
	}
}

func TestSimLoadBalancingUsesReplica(t *testing.T) {
	// Two heavy tasks homed on processor 0, each replicated on processor 1.
	// Without LB they collide; with LB per task one moves to the replica and
	// everything is admitted.
	mk := func(id string) *sched.Task {
		return periodicTask(id, 0, 450*time.Millisecond, time.Second, 1)
	}
	tasks := []*sched.Task{mk("p1"), mk("p2")}

	noLB := mustSim(t, simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 2), tasks).Run()
	withLB := mustSim(t, simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyPerTask}, 2), tasks).Run()

	if r := withLB.AcceptedUtilizationRatio(); !within(r, 1) {
		t.Errorf("LB per task ratio = %g, want 1 (replica absorbs second task)", r)
	}
	if noLB.AcceptedUtilizationRatio() >= withLB.AcceptedUtilizationRatio() {
		t.Errorf("no-LB ratio %g not worse than LB ratio %g",
			noLB.AcceptedUtilizationRatio(), withLB.AcceptedUtilizationRatio())
	}
}

func TestSimAperiodicPoissonDeterminism(t *testing.T) {
	mk := func() []*sched.Task {
		tk := aperiodicTask("a", 0, 50*time.Millisecond, time.Second)
		tk.MeanInterarrival = 300 * time.Millisecond
		return []*sched.Task{tk}
	}
	cfg := simCfg(Config{AC: StrategyPerJob, IR: StrategyPerTask, LB: StrategyNone}, 1)
	m1 := mustSim(t, cfg, mk()).Run()
	m2 := mustSim(t, cfg, mk()).Run()
	if m1.Total != m2.Total {
		t.Errorf("same seed produced different metrics:\n%+v\n%+v", m1.Total, m2.Total)
	}
	if m1.Total.Arrived == 0 {
		t.Error("no aperiodic arrivals generated")
	}
	cfg.Seed = 2
	m3 := mustSim(t, cfg, mk()).Run()
	if m3.Total.Arrived == m1.Total.Arrived && m3.Total.TotalResponse == m1.Total.TotalResponse {
		t.Log("different seed produced identical arrivals (unlikely but possible)")
	}
}

func TestSimPerTaskACSkipsRoundTripAfterDecision(t *testing.T) {
	cfg := simCfg(Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}, 1)
	task := periodicTask("p", 0, 10*time.Millisecond, 100*time.Millisecond)
	s := mustSim(t, cfg, []*sched.Task{task})
	m := s.Run()
	if m.Total.Released != m.Total.Arrived {
		t.Fatalf("released %d of %d", m.Total.Released, m.Total.Arrived)
	}
	// Only one admission test for the whole run.
	if s.Controller().Stats.Tests != 1 {
		t.Errorf("Tests = %d, want 1", s.Controller().Stats.Tests)
	}
}

func TestSimIRPerTaskResetsOnlyAperiodic(t *testing.T) {
	// One periodic and one aperiodic task, both completing well before their
	// deadlines. Under IR per task only the aperiodic contributions are
	// reset; under IR per job both are. The controller's IdleResets counter
	// exposes the difference.
	tasks := []*sched.Task{
		periodicTask("p", 0, 20*time.Millisecond, 500*time.Millisecond),
		aperiodicTask("a", 0, 20*time.Millisecond, 500*time.Millisecond),
	}
	run := func(ir Strategy) int64 {
		cfg := simCfg(Config{AC: StrategyPerJob, IR: ir, LB: StrategyNone}, 1)
		cfg.Horizon = 10 * time.Second
		s := mustSim(t, cfg, tasks)
		s.Run()
		return s.Controller().Stats.IdleResets
	}
	perTask := run(StrategyPerTask)
	perJob := run(StrategyPerJob)
	none := run(StrategyNone)
	if none != 0 {
		t.Errorf("IR none produced %d resets", none)
	}
	if perTask == 0 {
		t.Error("IR per task never reset aperiodic contributions")
	}
	if perJob <= perTask {
		t.Errorf("IR per job resets (%d) not above per-task resets (%d): periodic subjobs not included",
			perJob, perTask)
	}
}

func TestSimPerTaskACWithPerJobLBRelocates(t *testing.T) {
	// An admitted per-task periodic task whose stage is replicated: under
	// LB per job, an aperiodic burst on the home processor pushes later jobs
	// (and the task's reservation) to the replica. The sim must keep the
	// ledger consistent throughout — the AC-per-task/LB-per-job corner the
	// paper leaves implicit.
	p := periodicTask("p", 0, 100*time.Millisecond, 500*time.Millisecond, 1)
	a := aperiodicTask("a", 0, 150*time.Millisecond, 500*time.Millisecond)
	a.MeanInterarrival = 400 * time.Millisecond
	cfg := simCfg(Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyPerJob}, 2)
	cfg.Horizon = 20 * time.Second
	s := mustSim(t, cfg, []*sched.Task{p, a})
	m := s.Run()

	if s.Controller().Stats.Relocations == 0 {
		t.Error("no relocations despite per-job LB and a loaded home processor")
	}
	pm := m.Task("p")
	if pm.Skipped != 0 {
		t.Errorf("admitted per-task periodic task skipped %d jobs", pm.Skipped)
	}
	if pm.Released != pm.Arrived {
		t.Errorf("released %d of %d periodic jobs", pm.Released, pm.Arrived)
	}
	if err := s.Controller().Ledger().CheckInvariants(); err != nil {
		t.Error(err)
	}
	// The permanent reservation lives on exactly one placement: total
	// utilization across both processors equals the task's stage utilization
	// (0.2) regardless of where the last relocation put it.
	utils := s.Controller().Ledger().Utils()
	total := utils[0] + utils[1]
	if total < 0.19 || total > 0.21 {
		t.Errorf("reservation total = %g across %v, want ~0.2", total, utils)
	}
}

func TestSimEDMSPriorityProtectsShortDeadlines(t *testing.T) {
	// A short-deadline alert shares processor 0 with a long-running
	// low-priority task whose subjobs occupy most of the CPU. Under EDMS the
	// alert preempts and must never miss its deadline, even though the long
	// task alone would block it for 400ms at a time.
	long := &sched.Task{
		ID: "long", Kind: sched.Periodic,
		Period: time.Second, Deadline: time.Second,
		Subtasks: []sched.Subtask{{Index: 0, Exec: 400 * time.Millisecond, Processor: 0}},
	}
	alert := &sched.Task{
		ID: "alert", Kind: sched.Periodic,
		Period: 100 * time.Millisecond, Deadline: 100 * time.Millisecond,
		Phase:    10 * time.Millisecond, // arrives while long runs
		Subtasks: []sched.Subtask{{Index: 0, Exec: 10 * time.Millisecond, Processor: 0}},
	}
	cfg := simCfg(Config{AC: StrategyPerJob, IR: StrategyPerJob, LB: StrategyNone}, 1)
	m := mustSim(t, cfg, []*sched.Task{long, alert}).Run()

	a := m.Task("alert")
	if a.Released == 0 {
		t.Fatal("no alert jobs released")
	}
	if a.Missed != 0 {
		t.Errorf("alert missed %d of %d deadlines despite EDMS priority", a.Missed, a.Completed)
	}
	// The alert's response time stays near its execution time (plus the
	// admission round trip), far below the long task's 400ms subjobs: proof
	// that preemption, not FIFO, ordered the processor.
	if mean := a.MeanResponse(); mean > 50*time.Millisecond {
		t.Errorf("alert mean response %v, want preemptive latency well under 50ms", mean)
	}
}

func TestSimMixedWorkloadInvariants(t *testing.T) {
	tasks := []*sched.Task{
		periodicTask("p1", 0, 50*time.Millisecond, 500*time.Millisecond, 1),
		periodicTask("p2", 1, 100*time.Millisecond, time.Second, 0),
		aperiodicTask("a1", 0, 80*time.Millisecond, 800*time.Millisecond, 1),
		aperiodicTask("a2", 1, 60*time.Millisecond, 600*time.Millisecond),
	}
	for _, combo := range AllCombinations() {
		s := mustSim(t, simCfg(combo, 2), tasks)
		m := s.Run()
		if m.Total.Arrived == 0 {
			t.Fatalf("%s: no arrivals", combo)
		}
		if m.Total.Released+m.Total.Skipped != m.Total.Arrived {
			t.Errorf("%s: released %d + skipped %d != arrived %d",
				combo, m.Total.Released, m.Total.Skipped, m.Total.Arrived)
		}
		if m.Total.Completed > m.Total.Released {
			t.Errorf("%s: completed %d > released %d", combo, m.Total.Completed, m.Total.Released)
		}
		// All released jobs finish within the drain window.
		if m.Total.Completed != m.Total.Released {
			t.Errorf("%s: %d released jobs never completed", combo, m.Total.Released-m.Total.Completed)
		}
		if r := m.AcceptedUtilizationRatio(); r < 0 || r > 1 {
			t.Errorf("%s: ratio %g out of range", combo, r)
		}
		if err := s.Controller().Ledger().CheckInvariants(); err != nil {
			t.Errorf("%s: %v", combo, err)
		}
		if m.Periodic.Arrived+m.Aperiodic.Arrived != m.Total.Arrived {
			t.Errorf("%s: kind split does not sum", combo)
		}
	}
}

// manyTasks returns n valid tasks over procs processors: two or three stages
// each, every other stage replicated, every fourth task aperiodic.
func manyTasks(n, procs int) []*sched.Task {
	tasks := make([]*sched.Task, n)
	for i := range tasks {
		t := &sched.Task{
			ID: fmt.Sprintf("t%d", i), Kind: sched.Periodic,
			Period: time.Second, Deadline: time.Second + time.Duration(i)*time.Microsecond,
		}
		if i%4 == 3 {
			t.Kind, t.Period, t.MeanInterarrival = sched.Aperiodic, 0, time.Second
		}
		for s := 0; s < 2+i%2; s++ {
			st := sched.Subtask{Index: s, Exec: time.Millisecond, Processor: (i + s) % procs}
			if s%2 == 1 {
				st.Replicas = []int{(i + s + 1) % procs, (i + s + 2) % procs}
			}
			t.Subtasks = append(t.Subtasks, st)
		}
		tasks[i] = t
	}
	return tasks
}

// TestSimLeavesItsTasksUntouched holds the binding to reading its tasks in
// place: under every combination, through a run with a mid-run AddTasks,
// RemoveTasks and Reconfigure, no input or added task changes, Priority
// included, and the caller's slice is not written past its length either.
func TestSimLeavesItsTasksUntouched(t *testing.T) {
	const procs = 4
	combos := AllCombinations()
	for ci, combo := range combos {
		t.Run(combo.String(), func(t *testing.T) {
			// Spare capacity: a binding that appended to the caller's slice
			// instead of its own copy would write into it.
			in := append(make([]*sched.Task, 0, 48), manyTasks(40, procs)...)
			slots := slices.Clone(in[:cap(in)])
			add := []*sched.Task{
				periodicTask("late-p", 1, 5*time.Millisecond, 200*time.Millisecond, 2),
				aperiodicTask("late-a", 2, 5*time.Millisecond, 150*time.Millisecond, 3),
			}
			all := append(slices.Clone(in), add...)
			want := make([]*sched.Task, len(all))
			for i, task := range all {
				want[i] = task.Clone()
			}

			cfg := simCfg(combo, procs)
			cfg.Horizon = 10 * time.Second
			s := mustSim(t, cfg, in)
			at := func(d time.Duration, op func() error) {
				t.Helper()
				if err := s.At(d, func() {
					if err := op(); err != nil {
						t.Error(err)
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			at(2*time.Second, func() error { return s.AddTasks(add) })
			at(4*time.Second, func() error { return s.RemoveTasks([]string{"t1", "t2", "late-a"}) })
			var rep *ReconfigReport
			at(6*time.Second, func() (err error) {
				rep, err = s.Reconfigure(combos[(ci+1)%len(combos)])
				return err
			})
			m := s.Run()
			if m.Task("late-p").Arrived == 0 || m.Task("late-a").Arrived == 0 || rep == nil || rep.Epoch != 1 {
				t.Fatalf("the mid-run operations did not take: late-p %+v, late-a %+v, reconfiguration %+v",
					m.Task("late-p"), m.Task("late-a"), rep)
			}

			for i, task := range all {
				if !reflect.DeepEqual(task, want[i]) {
					t.Errorf("task %d changed in the binding:\n got %+v\nwant %+v", i, task, want[i])
				}
			}
			if !slices.Equal(in[:cap(in)], slots) {
				t.Error("the binding wrote into the caller's slice")
			}
		})
	}
}

// TestSimsShareOneTaskSet runs bindings over one task slice at once, two per
// combination on goroutines of their own, and holds each to the metrics and
// event count of the same run made alone. Under -race it also shows that no
// binding writes what another reads.
func TestSimsShareOneTaskSet(t *testing.T) {
	const procs = 8
	tasks := manyTasks(200, procs)
	type outcome struct {
		total, periodic, aperiodic KindMetrics
		fired                      int64
	}
	run := func(combo Config) (outcome, error) {
		s, err := NewSimSystem(simCfg(combo, procs), tasks)
		if err != nil {
			return outcome{}, err
		}
		m := s.Run()
		return outcome{m.Total, m.Periodic, m.Aperiodic, s.Engine().Fired()}, nil
	}
	var combos []Config
	for i, combo := range AllCombinations() {
		if i%3 == 0 {
			combos = append(combos, combo)
		}
	}
	serial := make([]outcome, len(combos))
	for i, combo := range combos {
		o, err := run(combo)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = o
	}

	const copies = 2
	got := make([]outcome, copies*len(combos))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(combos[i%len(combos)])
		}()
	}
	wg.Wait()
	for i, o := range got {
		combo := combos[i%len(combos)]
		if errs[i] != nil {
			t.Fatalf("%s: %v", combo, errs[i])
		}
		if o != serial[i%len(combos)] {
			t.Errorf("%s beside other bindings: %+v, alone: %+v", combo, o, serial[i%len(combos)])
		}
	}
}

// TestNewSimSystemValidationOrder pins which fault is reported, and in which
// words, with the offending task last among a thousand valid ones: per task
// Validate, then the duplicate ID, then the processors (stage by stage, home
// before replicas), then the aperiodic mean; the first offending task wins.
// A nil task is an error before any of them, wherever it stands.
func TestNewSimSystemValidationOrder(t *testing.T) {
	const procs = 50
	bad := func(edit func(*sched.Task)) *sched.Task {
		task := &sched.Task{
			ID: "bad", Kind: sched.Periodic, Period: time.Second, Deadline: time.Second,
			Subtasks: []sched.Subtask{
				{Index: 0, Exec: time.Millisecond, Processor: 1, Replicas: []int{2, 3}},
				{Index: 1, Exec: time.Millisecond, Processor: 4},
			},
		}
		edit(task)
		return task
	}
	aperiodicNoMean := func(task *sched.Task) { task.Kind, task.Period = sched.Aperiodic, 0 }
	for _, tc := range []struct {
		name string
		last []*sched.Task
		want string
	}{
		{"duplicate ID", []*sched.Task{bad(func(task *sched.Task) { task.ID = "t7" })},
			`core: duplicate task ID "t7"`},
		{"home processor out of range", []*sched.Task{bad(func(task *sched.Task) { task.Subtasks[1].Processor = procs })},
			"core: task bad references processor 50 but sim has 50"},
		{"replica out of range", []*sched.Task{bad(func(task *sched.Task) { task.Subtasks[0].Replicas[1] = 99 })},
			"core: task bad references processor 99 but sim has 50"},
		{"aperiodic without mean interarrival", []*sched.Task{bad(aperiodicNoMean)},
			"core: aperiodic task bad has no mean interarrival time"},
		{"Task.Validate failure", []*sched.Task{bad(func(task *sched.Task) { task.Deadline = 0 })},
			"sched: task bad: non-positive deadline 0s"},

		{"Validate before duplicate", []*sched.Task{bad(func(task *sched.Task) { task.ID, task.Subtasks[0].Exec = "t7", 0 })},
			"sched: task t7: subtask 0 has non-positive execution time 0s"},
		{"duplicate before processors", []*sched.Task{bad(func(task *sched.Task) { task.ID, task.Subtasks[0].Processor = "t7", 70 })},
			`core: duplicate task ID "t7"`},
		{"processors before aperiodic mean", []*sched.Task{bad(func(task *sched.Task) { aperiodicNoMean(task); task.Subtasks[1].Processor = 70 })},
			"core: task bad references processor 70 but sim has 50"},
		{"an earlier stage's replica before a later stage's home", []*sched.Task{bad(func(task *sched.Task) { task.Subtasks[0].Replicas[0], task.Subtasks[1].Processor = 60, 70 })},
			"core: task bad references processor 60 but sim has 50"},
		{"home before replicas", []*sched.Task{bad(func(task *sched.Task) { task.Subtasks[0].Processor, task.Subtasks[0].Replicas[0] = 80, 60 })},
			"core: task bad references processor 80 but sim has 50"},
		{"the first offending task", []*sched.Task{bad(aperiodicNoMean), bad(func(task *sched.Task) { task.ID = "" })},
			"core: aperiodic task bad has no mean interarrival time"},
		{"nil task", []*sched.Task{nil},
			"core: task 1000 is nil"},
		{"nil before every other fault", []*sched.Task{bad(func(task *sched.Task) { task.ID = "" }), nil},
			"core: task 1001 is nil"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tasks := append(manyTasks(1000, procs), tc.last...)
			s, err := NewSimSystem(simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, procs), tasks)
			if err == nil || err.Error() != tc.want || s != nil {
				t.Fatalf("NewSimSystem = %v, %v; want nil and %q", s, err, tc.want)
			}
		})
	}
}

// TestRunnableAgreesWithChecks draws tasks whose every field is valid or one
// of its invalid values, alone and in combination, and holds runnable to
// Task.Validate and checkTask: it accepts exactly the tasks both accept.
func TestRunnableAgreesWithChecks(t *testing.T) {
	const procs = 4
	rng := rand.New(rand.NewSource(3))
	pick := func(vals ...int) int {
		if rng.Intn(3) > 0 {
			return vals[0]
		}
		return vals[rng.Intn(len(vals))]
	}
	accepted := 0
	for i := 0; i < 20000; i++ {
		task := &sched.Task{
			ID:               []string{"t", ""}[pick(0, 1)],
			Kind:             sched.TaskKind(pick(int(sched.Periodic), int(sched.Aperiodic), 0, 3)),
			Period:           time.Duration(pick(10, 0, -1)),
			Deadline:         time.Duration(pick(10, 0, -1)),
			MeanInterarrival: time.Duration(pick(10, 0, -1)),
		}
		for stage := range pick(2, 0, 1, 3) {
			st := sched.Subtask{Index: pick(stage, stage+1, 0), Exec: time.Duration(pick(1, 0, -1)), Processor: pick(stage%procs, -1, procs, procs+1)}
			for range pick(1, 0, 2) {
				st.Replicas = append(st.Replicas, pick((stage+1)%procs, st.Processor, -1, procs))
			}
			task.Subtasks = append(task.Subtasks, st)
		}
		want := task.Validate() == nil && checkTask(task, procs) == nil
		if got := runnable(task, procs); got != want {
			t.Fatalf("runnable(%+v) = %v, the checks say %v", *task, got, want)
		}
		if want {
			accepted++
		}
	}
	if accepted < 1000 || accepted > 19000 {
		t.Fatalf("%d of 20000 drawn tasks are runnable: the draw should give both answers often", accepted)
	}
}

// TestNewSimSystemAllocsFlat keeps the build's allocations independent of the
// task count: the binding's copy of the task slice, the name index, the EDMS
// order's two key slices (the (deadline, index) keys and the radix passes'
// scratch copy), the priority table and the per-task state arrays, plus what
// fifty processors cost. One allocation per task, were it to come back, would read
// as thousands. Every part is one allocation whatever the count (the name
// index is one slot array, not a Go map's tables), so the two counts may
// differ by a few at most.
func TestNewSimSystemAllocsFlat(t *testing.T) {
	const procs = 50
	cfg := simCfg(Config{AC: StrategyPerJob, IR: StrategyPerJob, LB: StrategyPerJob}, procs)
	build := func(n int) float64 {
		tasks := manyTasks(n, procs)
		return testing.AllocsPerRun(5, func() {
			if _, err := NewSimSystem(cfg, tasks); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := build(1000), build(10000)
	if small >= 300 || large >= 300 {
		t.Errorf("NewSimSystem allocates %v times for 1000 tasks and %v for 10000, want under 300 for both", small, large)
	}
	if d := large - small; d > 8 || d < -8 {
		t.Errorf("NewSimSystem allocates %v times for 1000 tasks and %v for 10000: the count follows the task count", small, large)
	}

	// The bytes of one build at the sim-sweep shape: per-task state belongs
	// to a task's first arrival, and a copy of the tasks would be 2 MB of
	// the build; either would read as decision time. buildBytes is the build
	// that reads its tasks in place and indexes their names in one slot
	// array, ranks EDMS keys packed in one uint64 each and shares the
	// caller's task slice (go1.24, amd64); the bound allows 3 % over it.
	const buildBytes = 453584
	p := workload.ScaleParams(procs, 10000, 1)
	p.TargetUtil = 0.9
	tasks, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	const builds = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		if _, err := NewSimSystem(cfg, tasks); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / builds; got > buildBytes*103/100 {
		t.Errorf("NewSimSystem allocates %d bytes at the sim-sweep shape, want at most %d (3 %% over %d)", got, buildBytes*103/100, buildBytes)
	} else {
		t.Logf("NewSimSystem allocates %d bytes at the sim-sweep shape (bound %d)", got, buildBytes*103/100)
	}
}

func TestMetricsPerTask(t *testing.T) {
	tasks := []*sched.Task{
		periodicTask("p1", 0, 10*time.Millisecond, 100*time.Millisecond),
		aperiodicTask("a1", 0, 10*time.Millisecond, 200*time.Millisecond),
	}
	cfg := simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 1)
	cfg.Horizon = time.Second
	s := mustSim(t, cfg, tasks)
	m := s.Run()

	ids := m.TaskIDs()
	if len(ids) != 2 || ids[0] != "a1" || ids[1] != "p1" {
		t.Fatalf("TaskIDs = %v", ids)
	}
	p1 := m.Task("p1")
	a1 := m.Task("a1")
	if p1.Arrived+a1.Arrived != m.Total.Arrived {
		t.Errorf("per-task arrivals %d+%d != total %d", p1.Arrived, a1.Arrived, m.Total.Arrived)
	}
	if p1.Arrived != m.Periodic.Arrived {
		t.Errorf("p1 arrivals %d != periodic bucket %d", p1.Arrived, m.Periodic.Arrived)
	}
	if ghost := m.Task("nope"); ghost.Arrived != 0 {
		t.Errorf("unknown task bucket = %+v", ghost)
	}
}

// TestReaddedTaskAccountsIntoFirstBucket removes a task mid-run and adds it
// again under the same ID: both incarnations' jobs account into one bucket,
// and the ID is listed once.
func TestReaddedTaskAccountsIntoFirstBucket(t *testing.T) {
	first := periodicTask("p", 0, time.Millisecond, 10*time.Millisecond)
	second := periodicTask("p", 0, 2*time.Millisecond, 20*time.Millisecond)
	cfg := simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 1)
	cfg.Horizon = time.Second
	s := mustSim(t, cfg, []*sched.Task{first})
	var before KindMetrics
	if err := s.At(400*time.Millisecond, func() {
		if err := s.RemoveTasks([]string{"p"}); err != nil {
			t.Error(err)
		}
		before = s.Metrics().Task("p")
		if err := s.AddTasks([]*sched.Task{second}); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	m := s.Run()
	got := m.Task("p")
	if before.Arrived == 0 || got.Arrived <= before.Arrived {
		t.Fatalf("arrivals %d before the re-add, %d after: want both incarnations", before.Arrived, got.Arrived)
	}
	if got.Arrived != m.Total.Arrived || got.Completed != m.Total.Completed || got.ReleasedUtil != m.Total.ReleasedUtil {
		t.Errorf("bucket %+v, want the sum of both incarnations %+v", got, m.Total)
	}
	if ids := m.TaskIDs(); len(ids) != 1 || ids[0] != "p" {
		t.Errorf("TaskIDs = %v, want [p]", ids)
	}
}
