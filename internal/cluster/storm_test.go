package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestSubmitStormDrains is the no-mutual-block proof for one-way servants
// running on their connection's reader: 20 000 J_J_J submissions back to
// back — every TaskArrive, Accept, Release, Trigger and IdleReset handled on
// a reader, many of them writing to another node from there, with socket
// buffers and pending lists filling — must all be decided and every admitted
// job must complete, inside the timeout, with clean ledgers. Two readers
// blocked on each other's full sockets would stop the count short. Heartbeats
// ride the same connections as the storm, at the default detector timeout:
// no node may be suspected while the manager keeps up.
func TestSubmitStormDrains(t *testing.T) {
	const jobs = 20_000
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}
	for _, tc := range []struct {
		name      string
		exec      time.Duration
		execScale float64
		// allAdmitted cases must admit every job and decide the last one
		// within decideWithin of the last submit.
		allAdmitted  bool
		decideWithin time.Duration
	}{
		// A deadline longer than the storm, so no hold goes stale and a
		// decision that arrives is a decision that counts; and stages heavy
		// enough on paper (1/2000 of a processor each, run at 20 us) that
		// about a thousand jobs fill the AUB bound: the ledger stays small and
		// the storm is an overload, admitting more as idle resets make room.
		{name: "overload", exec: 30 * time.Millisecond, execScale: 1.0 / 1500},
		// 30 us stages on the same minute deadline: every job fits, so the
		// ledger holds thousands in flight, and a decision must not cost more
		// as they pile up (the multi-shard ledger re-summed every in-flight
		// job spanning two shards per decision: 17–18 s to decide this storm).
		{name: "all-admitted", exec: 30 * time.Microsecond, execScale: 1, allAdmitted: true, decideWithin: 10 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl, ids := benchShape(t, false, tc.exec, time.Minute)
			c, err := Start(Options{Workload: wl, Config: cfg, ExecScale: tc.execScale, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			downs, err := c.Watch(core.WatchOptions{Kinds: []core.WatchKind{core.WatchNodeDown}})
			if err != nil {
				t.Fatal(err)
			}

			for i := 0; i < jobs; i++ {
				if _, err := c.Submit(ids[i%len(ids)]); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}
			lastSubmit := time.Now()
			deadline := lastSubmit.Add(90 * time.Second)
			decided := func() bool {
				s := c.Snapshot()
				return s.Released+s.Skipped == jobs
			}
			for !decided() && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			decidedIn := time.Since(lastSubmit)
			if !decided() || !c.Drain(time.Until(deadline)) {
				t.Fatalf("storm did not drain: %+v", c.Snapshot())
			}
			s := c.Snapshot()
			if s.Arrived != jobs || s.Completed != s.Released {
				t.Errorf("after the storm: %+v", s)
			}
			if s.Released == 0 {
				t.Error("the storm admitted nothing")
			}
			if tc.allAdmitted {
				if s.Released != jobs || s.Skipped != 0 {
					t.Errorf("%d of %d released, %d refused; want every job admitted", s.Released, jobs, s.Skipped)
				}
				if decidedIn > tc.decideWithin {
					t.Errorf("last decision %v after the last submit, want within %v", decidedIn, tc.decideWithin)
				}
			}
			t.Logf("%d submitted: %d released and completed, %d refused; all decided %v after the last submit",
				jobs, s.Released, s.Skipped, decidedIn.Round(time.Millisecond))
			if err := c.AuditAdmissionState(); err != nil {
				t.Error(err)
			}
			if sb, err := c.Standby(); err != nil {
				t.Error(err)
			} else if st := sb.Stats(); st.OutOfOrder != 0 {
				t.Errorf("standby saw %d replication records out of order: %+v", st.OutOfOrder, st)
			}
			// Every node must have been heard, or no suspicion says nothing.
			for heard := false; !heard && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
				heard = true
				for _, h := range c.Health() {
					heard = heard && h.Beats > 0
				}
			}
			var suspects []NodeHealth
			for _, h := range c.Health() {
				if h.Beats == 0 {
					t.Errorf("no heartbeat heard from %s", h.Node)
				}
				if h.Suspect {
					suspects = append(suspects, h)
				}
			}
			var down *core.WatchEvent
			select {
			case ev := <-downs.Events():
				down = &ev
			default:
			}
			// A beat rides its node's connection behind the storm's
			// TaskArrives and is read in order, so it keeps up only while the
			// manager does: a backlog that outlasts the detector timeout
			// delays the beats queued behind it as long. Under the race
			// detector on one or two CPUs the manager falls 0.7–1.7 s behind
			// the all-admitted storm; that is logged, not failed.
			if decidedIn >= DefaultHeartbeatTimeout {
				t.Logf("the manager's backlog outlasted the %v detector timeout: suspects %+v, node-down %+v",
					DefaultHeartbeatTimeout, suspects, down)
				return
			}
			for _, h := range suspects {
				t.Errorf("heartbeats fell behind the storm: %+v", h)
			}
			if down != nil {
				t.Errorf("watch stream announced a node down during the storm: %+v", *down)
			}
		})
	}
}
