package rtmw_test

import (
	"errors"
	"testing"
	"time"

	rtmw "repro"
	"repro/internal/configengine"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/spec"
	"repro/internal/workload"
)

// TestFacadeSimulationQuickstart exercises the README quickstart path
// through the public facade.
func TestFacadeSimulationQuickstart(t *testing.T) {
	tasks := []*rtmw.Task{
		{
			ID: "sensor", Kind: rtmw.Periodic,
			Period: 200 * time.Millisecond, Deadline: 200 * time.Millisecond,
			Subtasks: []rtmw.Subtask{
				{Index: 0, Exec: 20 * time.Millisecond, Processor: 0, Replicas: []int{1}},
				{Index: 1, Exec: 10 * time.Millisecond, Processor: 1},
			},
		},
		{
			ID: "alert", Kind: rtmw.Aperiodic,
			Deadline: 150 * time.Millisecond, MeanInterarrival: 300 * time.Millisecond,
			Subtasks: []rtmw.Subtask{
				{Index: 0, Exec: 15 * time.Millisecond, Processor: 1},
			},
		},
	}
	cfg, err := rtmw.ParseConfig("J_J_T")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := rtmw.NewSimBinding(rtmw.SimConfig{
		Strategies: cfg,
		NumProcs:   2,
		Horizon:    time.Minute,
		Seed:       1,
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run()
	if m.Total.Arrived == 0 || m.Total.Released == 0 {
		t.Fatalf("metrics = %+v", m.Total)
	}
	if r := m.AcceptedUtilizationRatio(); r <= 0 || r > 1 {
		t.Errorf("accepted utilization ratio = %g", r)
	}
}

// TestFacadeUnifiedBinding drives the simulation binding through the
// Binding interface: reconfigure mid-run, then pin the snapshot and the
// zero-job-loss guarantee.
func TestFacadeUnifiedBinding(t *testing.T) {
	tasks := []*rtmw.Task{
		{
			ID: "sensor", Kind: rtmw.Periodic,
			Period: 100 * time.Millisecond, Deadline: 100 * time.Millisecond,
			Subtasks: []rtmw.Subtask{
				{Index: 0, Exec: 10 * time.Millisecond, Processor: 0, Replicas: []int{1}},
			},
		},
		{
			ID: "alert", Kind: rtmw.Aperiodic,
			Deadline: 150 * time.Millisecond, MeanInterarrival: 200 * time.Millisecond,
			Subtasks: []rtmw.Subtask{
				{Index: 0, Exec: 15 * time.Millisecond, Processor: 1},
			},
		},
	}
	from, _ := rtmw.ParseConfig("T_N_N")
	to, _ := rtmw.ParseConfig("J_J_J")
	sim, err := rtmw.NewSimBinding(rtmw.SimConfig{
		Strategies: from, NumProcs: 2, Horizon: 30 * time.Second, Seed: 3,
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	var b rtmw.Binding = sim

	// Invalid target rejected through the interface, config untouched.
	bad, err := rtmw.ParseConfig("T_N_N")
	if err != nil {
		t.Fatal(err)
	}
	bad.IR = rtmw.StrategyPerJob
	if _, err := b.Reconfigure(bad); err == nil {
		t.Error("contradictory target accepted through Binding")
	}
	if snap := b.Snapshot(); snap.Config != from || snap.Epoch != 0 {
		t.Errorf("snapshot disturbed: %+v", snap)
	}

	adm, err := b.Submit("alert")
	if err != nil {
		t.Fatal(err)
	}
	if adm.Job != 0 || adm.Outcome != rtmw.AdmissionPending {
		t.Errorf("submit admission = %+v", adm)
	}
	if _, err := b.Submit("ghost"); !errors.Is(err, rtmw.ErrUnknownTask) {
		t.Errorf("unknown task error = %v, want ErrUnknownTask", err)
	}

	// Open-world surface through the interface: a watch stream, a mid-run
	// task join and a departure.
	watch, err := b.Watch(rtmw.WatchOptions{Buffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []rtmw.WatchKind
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for ev := range watch.Events() {
			kinds = append(kinds, ev.Kind)
		}
	}()
	if err := sim.At(5*time.Second, func() {
		err := b.AddTasks([]*rtmw.Task{{
			ID: "burst", Kind: rtmw.Aperiodic,
			Deadline: 100 * time.Millisecond, MeanInterarrival: 200 * time.Millisecond,
			Subtasks: []rtmw.Subtask{{Index: 0, Exec: 5 * time.Millisecond, Processor: 0}},
		}})
		if err != nil {
			t.Errorf("AddTasks through Binding: %v", err)
			return
		}
		if _, err := b.SubmitBatch([]string{"burst", "burst"}); err != nil {
			t.Errorf("SubmitBatch through Binding: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.At(20*time.Second, func() {
		if err := b.RemoveTasks([]string{"burst"}); err != nil {
			t.Errorf("RemoveTasks through Binding: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := sim.ScheduleReconfig(15*time.Second, to); err != nil {
		t.Fatal(err)
	}
	m := sim.Run()
	if m.Total.Released != m.Total.Completed {
		t.Errorf("admitted jobs lost: %+v", m.Total)
	}
	snap := b.Snapshot()
	if snap.Config != to || snap.Epoch != 1 || snap.InFlight != 0 {
		t.Errorf("snapshot after reconfigured run = %+v", snap)
	}
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	<-watchDone
	seen := make(map[rtmw.WatchKind]bool, len(kinds))
	for _, k := range kinds {
		seen[k] = true
	}
	for _, want := range []rtmw.WatchKind{
		rtmw.WatchAdmitted, rtmw.WatchCompleted, rtmw.WatchTaskAdded,
		rtmw.WatchTaskRemoved, rtmw.WatchReconfigured,
	} {
		if !seen[want] {
			t.Errorf("watch stream missing %v events (saw %v)", want, kinds)
		}
	}
	if _, err := b.Submit("alert"); !errors.Is(err, rtmw.ErrStopped) {
		t.Errorf("submit after Stop error = %v, want ErrStopped", err)
	}
}

func TestFacadeConfigEngine(t *testing.T) {
	res := rtmw.MapAnswers(rtmw.Answers{
		JobSkipping:      true,
		Replication:      true,
		StatePersistence: false,
		Overhead:         rtmw.TolerancePerJob,
	})
	if res.Config.String() != "J_J_J" {
		t.Errorf("mapping = %s, want J_J_J", res.Config)
	}
	if _, err := rtmw.ParseConfig("T_J_N"); err == nil {
		t.Error("facade accepted the contradictory T_J_N configuration")
	}
	if got := len(core.AllCombinations()); got != 15 {
		t.Errorf("AllCombinations = %d, want 15", got)
	}
}

func TestFacadeWorkloadRoundTrip(t *testing.T) {
	tasks, err := rtmw.GenerateWorkload(workload.Figure5Params(0))
	if err != nil {
		t.Fatal(err)
	}
	w := spec.FromTasks("fig5", 5, tasks)
	data, err := w.Encode()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := rtmw.ParseWorkload(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(w2.Tasks) != len(tasks) {
		t.Errorf("round trip lost tasks: %d vs %d", len(w2.Tasks), len(tasks))
	}
	scaled := workload.Scale(tasks, 0.5)
	if scaled[0].Deadline != tasks[0].Deadline/2 {
		t.Error("workload.Scale did not halve deadlines")
	}
}

func TestFacadePlanGeneration(t *testing.T) {
	w, err := rtmw.ParseWorkload([]byte(`{
	  "name": "facade", "processors": 1,
	  "tasks": [{"id": "t", "kind": "periodic", "period": "1s", "deadline": "1s",
	    "subtasks": [{"exec": "10ms", "processor": 0}]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := rtmw.GeneratePlan("p", w, rtmw.MapAnswers(configengine.DefaultAnswers()).Config,
		rtmw.DeploymentNode{Name: "m", Address: "127.0.0.1:1", Processor: -1},
		[]rtmw.DeploymentNode{{Name: "a0", Address: "127.0.0.1:2", Processor: 0}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := plan.Encode()
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := deploy.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Name != "p" || len(plan2.Instances) == 0 {
		t.Errorf("plan round trip = %+v", plan2)
	}
}
