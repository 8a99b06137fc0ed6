package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

// reconfigWorkload is a mixed periodic/aperiodic two-processor workload
// busy enough that jobs are in flight at the swap instant.
func reconfigWorkload() []*sched.Task {
	return []*sched.Task{
		periodicTask("p0", 0, 30*time.Millisecond, 200*time.Millisecond, 1),
		periodicTask("p1", 1, 25*time.Millisecond, 250*time.Millisecond, 0),
		aperiodicTask("a0", 0, 15*time.Millisecond, 150*time.Millisecond, 1),
		aperiodicTask("a1", 1, 10*time.Millisecond, 120*time.Millisecond),
	}
}

// TestSimReconfigureMidRunNoJobLoss pins the tentpole guarantee: flipping
// the minimal static configuration to the fully dynamic one mid-run loses
// no admitted job — every released job completes, and every arrival is
// decided (released or skipped).
func TestSimReconfigureMidRunNoJobLoss(t *testing.T) {
	from := Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}
	to := Config{AC: StrategyPerJob, IR: StrategyPerJob, LB: StrategyPerJob}
	sim := mustSim(t, simCfg(from, 2), reconfigWorkload())
	rep, err := sim.ScheduleReconfig(15*time.Second, to)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run()

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
	if got := sim.Controller().Config(); got != to {
		t.Errorf("controller config after swap = %s, want %s", got, to)
	}
	if rep.Epoch != 1 || rep.From != from || rep.To != to {
		t.Errorf("report = %+v", rep)
	}
	if rep.At < 15*time.Second {
		t.Errorf("swap at %v, before the scheduled instant", rep.At)
	}
	if rep.Quiesce <= 0 {
		t.Errorf("quiesce window = %v", rep.Quiesce)
	}
	if snap := sim.Snapshot(); snap.Epoch != 1 || snap.Config != to || snap.InFlight != 0 {
		t.Errorf("snapshot after drain = %+v", snap)
	}
}

// TestSimReconfigureFigureWorkload runs the swap over a full Figure 5
// random workload — the experiment harness's configuration — and pins zero
// job loss plus ledger invariants at scale.
func TestSimReconfigureFigureWorkload(t *testing.T) {
	tasks, err := workload.Generate(workload.Figure5Params(0))
	if err != nil {
		t.Fatal(err)
	}
	sim := mustSim(t, SimConfig{
		Strategies: Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone},
		NumProcs:   workload.MaxProc(tasks) + 1,
		Horizon:    time.Minute,
		Seed:       7,
	}, tasks)
	if _, err := sim.ScheduleReconfig(30*time.Second, Config{AC: StrategyPerJob, IR: StrategyPerJob, LB: StrategyPerJob}); err != nil {
		t.Fatal(err)
	}
	m := sim.Run() // Run audits ledger invariants and panics on drift.
	if m.Total.Released != m.Total.Completed {
		t.Errorf("admitted jobs lost: released %d, completed %d", m.Total.Released, m.Total.Completed)
	}
	if m.Total.Arrived != m.Total.Released+m.Total.Skipped {
		t.Errorf("arrival accounting broken: %+v", m.Total)
	}
}

// TestSimReconfigureInvalidTargetRejected pins that a contradictory target
// is refused without disturbing the scheduled run.
func TestSimReconfigureInvalidTargetRejected(t *testing.T) {
	from := Config{AC: StrategyPerJob, IR: StrategyPerJob, LB: StrategyNone}
	sim := mustSim(t, simCfg(from, 2), reconfigWorkload())
	if _, err := sim.ScheduleReconfig(time.Second, Config{AC: StrategyPerTask, IR: StrategyPerJob, LB: StrategyNone}); err == nil {
		t.Fatal("contradictory AC-per-task/IR-per-job target accepted")
	}
	if _, err := sim.Reconfigure(Config{}); err == nil {
		t.Fatal("zero-value target accepted")
	}
	m := sim.Run()
	if got := sim.Controller().Config(); got != from {
		t.Errorf("config disturbed by rejected target: %s", got)
	}
	if snap := sim.Snapshot(); snap.Epoch != 0 {
		t.Errorf("rejected targets advanced the epoch: %+v", snap)
	}
	if m.Total.Released != m.Total.Completed {
		t.Errorf("baseline run lost jobs: %+v", m.Total)
	}
}

// TestSimReconfigureStrategySchedule runs a three-phase strategy schedule
// (T_N_N → J_N_N → J_J_J) and pins epoch ordering plus zero job loss
// across both swaps.
func TestSimReconfigureStrategySchedule(t *testing.T) {
	sim := mustSim(t, simCfg(Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}, 2), reconfigWorkload())
	var reports []*ReconfigReport
	for i, to := range []Config{
		{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone},
		{AC: StrategyPerJob, IR: StrategyPerJob, LB: StrategyPerJob},
	} {
		rep, err := sim.ScheduleReconfig(time.Duration(i+1)*10*time.Second, to)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	m := sim.Run()
	if reports[0].Epoch != 1 || reports[1].Epoch != 2 {
		t.Errorf("epochs = %d, %d", reports[0].Epoch, reports[1].Epoch)
	}
	if reports[1].From != reports[0].To {
		t.Errorf("schedule not chained: %s -> %s then %s -> %s",
			reports[0].From, reports[0].To, reports[1].From, reports[1].To)
	}
	if m.Total.Released != m.Total.Completed {
		t.Errorf("admitted jobs lost across schedule: %+v", m.Total)
	}
}

// TestSimReconfigureIdempotentPreRun pins the synchronous pre-run path:
// with the engine idle the swap applies immediately and the report is
// complete.
func TestSimReconfigurePreRun(t *testing.T) {
	from := Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}
	to := Config{AC: StrategyPerJob, IR: StrategyPerTask, LB: StrategyNone}
	sim := mustSim(t, simCfg(from, 2), reconfigWorkload())
	rep, err := sim.Reconfigure(to)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 || rep.Quiesce != 0 || rep.To != to {
		t.Errorf("pre-run report = %+v", rep)
	}
	if got := sim.Controller().Config(); got != to {
		t.Errorf("config = %s, want %s", got, to)
	}
	m := sim.Run()
	if m.Total.Released != m.Total.Completed {
		t.Errorf("run after pre-run reconfigure lost jobs: %+v", m.Total)
	}
}

// TestSimReconfigureReservationRebase pins the ledger rebase: per-task
// reservations are withdrawn when AC leaves per-task, and the released
// count lands in the report.
func TestSimReconfigureReservationRebase(t *testing.T) {
	sim := mustSim(t, simCfg(Config{AC: StrategyPerTask, IR: StrategyNone, LB: StrategyNone}, 2), reconfigWorkload())
	rep, err := sim.ScheduleReconfig(15*time.Second, Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	// Both periodic tasks are feasible, so both held reservations (one
	// single-stage contribution each) at the swap.
	if rep.ReservationsReleased != 2 {
		t.Errorf("ReservationsReleased = %d, want 2", rep.ReservationsReleased)
	}
	if got := sim.Controller().Stats.ReconfigReleased; got != 2 {
		t.Errorf("controller ReconfigReleased = %d, want 2", got)
	}
}

// TestSimSubmitInjectsArrival pins the Binding Submit path: extra arrivals
// join the workload, return a typed Admission, and are decided like
// generated ones. Failures are typed sentinels, not message strings.
func TestSimSubmitInjectsArrival(t *testing.T) {
	sim := mustSim(t, simCfg(Config{AC: StrategyPerJob, IR: StrategyNone, LB: StrategyNone}, 2), reconfigWorkload())
	adm, err := sim.Submit("a0")
	if err != nil {
		t.Fatal(err)
	}
	if adm.Job != 0 || adm.Task != "a0" {
		t.Errorf("first submitted admission = %+v", adm)
	}
	if adm.Outcome != AdmissionPending {
		t.Errorf("per-job AC submission outcome = %v, want pending", adm.Outcome)
	}
	if _, err := sim.Submit("ghost"); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("unknown task error = %v, want ErrUnknownTask", err)
	}
	m := sim.Run()
	if m.Total.Released != m.Total.Completed {
		t.Errorf("run with submitted arrival lost jobs: %+v", m.Total)
	}
	if err := sim.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Submit("a0"); !errors.Is(err, ErrStopped) {
		t.Errorf("Submit after Stop error = %v, want ErrStopped", err)
	}
}
