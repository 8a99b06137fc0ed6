package live

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ccm"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

// TestLiveReaddedTaskKeepsItsContribution is the live counterpart of
// TestSimReaddedTaskKeepsItsContribution: task p is removed and added again
// under its old ID, and the new incarnation's job 0 is admitted. Then the old
// incarnation's straggler idle report for its job 0 arrives and that job's
// expiry fires (the test runs the timer's callback, ac.expire, itself). Both
// name the old ref, so the new job's contribution must stay in the admission
// controller's ledger.
func TestLiveReaddedTaskKeepsItsContribution(t *testing.T) {
	node, err := NewNode("readd-test", -1, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx := &ccm.Context{Node: "readd-test", ORB: node.ORB, Events: node.Channel}
	// p's deadline is an hour, so no expiry timer fires during the test.
	const withP = `{"name": "unit", "processors": 2, "tasks": [
	  {"id": "p", "kind": "aperiodic", "deadline": "1h", "subtasks": [{"exec": "6m", "processor": 0}]},
	  {"id": "a", "kind": "aperiodic", "deadline": "80ms", "subtasks": [{"exec": "4ms", "processor": 1}]}]}`
	const onlyA = `{"name": "unit", "processors": 2, "tasks": [
	  {"id": "a", "kind": "aperiodic", "deadline": "80ms", "subtasks": [{"exec": "4ms", "processor": 1}]}]}`
	attrs := acAttrs()
	attrs[AttrIRStrategy], attrs[AttrWorkload] = "J", withP
	ac := NewAdmissionController()
	if err := ac.Configure(attrs); err != nil {
		t.Fatal(err)
	}
	if err := ac.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	defer ac.Passivate()

	arrive := func(task sched.TaskRef) {
		t.Helper()
		arr := TaskArrive{Task: task, Job: 0, Proc: 0, ArrivalNanos: time.Now().UnixNano()}
		ac.onTaskArrive(eventchan.Event{Type: EvTaskArrive, Payload: AppendTaskArrive(nil, &arr)})
	}
	swap := func(workload, refs string) {
		t.Helper()
		if _, err := ac.Quiesce(); err != nil {
			t.Fatal(err)
		}
		if err := ac.Reconfigure(map[string]string{AttrWorkload: workload, AttrTaskRefs: refs}); err != nil {
			t.Fatal(err)
		}
		if _, err := ac.Resume(); err != nil {
			t.Fatal(err)
		}
	}

	arrive(0) // p's first incarnation holds ref 0
	swap(onlyA, `["","a"]`)
	swap(withP, `["","a","p"]`) // p is back, under ref 2
	arrive(2)
	ledger := ac.Controller().Ledger()
	want, util := []sched.JobKey{{Task: 2, Job: 0}}, ledger.Util(0)
	if got := ledger.ActiveJobs(); !slices.Equal(got, want) || util == 0 {
		t.Fatalf("after the new incarnation's admission: active %v, Util(0) %g; want %v and its contribution", got, util, want)
	}

	stale := sched.JobKey{Task: 0, Job: 0}
	rep := IdleReset{Proc: 0, Entries: []sched.Entry[sched.JobKey]{{Ref: stale, Stage: 0, Proc: 0}}}
	ac.onIdleReset(eventchan.Event{Type: EvIdleReset, Payload: AppendIdleReset(nil, &rep)})
	ac.expire(stale)

	if got := ledger.ActiveJobs(); !slices.Equal(got, want) || ledger.Util(0) != util {
		t.Errorf("the old incarnation's report and expiry reached the new job: active %v, Util(0) %g; want %v, %g",
			got, ledger.Util(0), want, util)
	}
	if err := ledger.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
