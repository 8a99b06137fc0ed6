package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestManagerPushesOneEventPerDecision: the manager's only traffic onto the
// event plane is the admission controller's answers, one Accept per decided
// arrival. Executions run three times their declared length, so a burst of
// alerts keeps processor 1 busy past their deadlines: some admitted jobs
// expire in the ledger, the rest are idle-reset once the processor drains,
// and neither leaves the manager as an event.
func TestManagerPushesOneEventPerDecision(t *testing.T) {
	c, err := Start(Options{
		Workload:  miniWorkload(t),
		Config:    core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob},
		ExecScale: 3,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ac, err := c.AC()
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 3
	jobs := int64(0)
	for r := 0; r < rounds; r++ {
		for i := 0; i < 30; i++ {
			if _, err := c.Submit("alert"); err != nil {
				t.Fatal(err)
			}
			jobs++
		}
		if _, err := c.Submit("flow"); err != nil {
			t.Fatal(err)
		}
		jobs++
		// A pause long enough for processor 1 to run the burst dry and idle.
		time.Sleep(100 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s := c.Snapshot(); s.Released+s.Skipped < jobs && time.Now().Before(deadline); s = c.Snapshot() {
		time.Sleep(5 * time.Millisecond)
	}
	if !c.Drain(5 * time.Second) {
		t.Fatalf("cluster did not drain: %+v", c.Snapshot())
	}
	// Every contribution leaves the ledger by expiry or idle reset.
	for len(ac.ActiveLedgerJobs()) > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	stats := &ac.Controller().Stats
	accepts, expiries, resets := atomic.LoadInt64(&stats.Accepts), atomic.LoadInt64(&stats.Expiries), atomic.LoadInt64(&stats.IdleResets)
	if accepts == 0 || expiries == 0 || resets == 0 {
		t.Fatalf("want accepts, expiries and idle resets all exercised: %d, %d, %d", accepts, expiries, resets)
	}
	decisions := ac.DecisionDelay.Count()
	if decisions != jobs {
		t.Errorf("AC decided %d arrivals, want %d", decisions, jobs)
	}
	if pushed := c.Manager.Channel.PlaneStats().Pushed; pushed != decisions {
		t.Errorf("manager pushed %d events for %d decisions (%d accepted, %d contributions expired, %d idle-reset); want one Accept each",
			pushed, decisions, accepts, expiries, resets)
	}
	if err := c.AuditAdmissionState(); err != nil {
		t.Error(err)
	}
}
