package live

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/ccm"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

// pushRep pushes one replication record into the node's channel, which
// delivers it synchronously to the standby's subscription.
func pushRep(t *testing.T, node *Node, rec RepRecord) {
	t.Helper()
	if err := node.Channel.Push(eventchan.Event{Type: EvReplicate, Payload: AppendRepRecord(nil, &rec)}); err != nil {
		t.Fatal(err)
	}
}

func TestStandbyACMirrorsFencesAndPromotes(t *testing.T) {
	node, err := NewNode("sb-test", -1, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	sb := NewStandbyAC()
	if err := sb.Activate(&ccm.Context{Node: "sb-test", ORB: node.ORB, Events: node.Channel}); !errors.Is(err, ErrNotConfigured) {
		t.Fatalf("Activate before Configure: %v, want ErrNotConfigured", err)
	}
	if err := sb.Configure(nil); err == nil {
		t.Error("Configure accepted missing processor count")
	}
	if err := sb.Configure(map[string]string{AttrProcessors: "0"}); err == nil {
		t.Error("Configure accepted zero processors")
	}
	if err := sb.Configure(map[string]string{AttrProcessors: "2"}); err == nil {
		t.Error("Configure accepted a missing TaskRefs table")
	}
	if err := sb.Configure(map[string]string{AttrProcessors: "2", AttrTaskRefs: `["t0","t1","t2","t3","t4","t5","t6"]`}); err != nil {
		t.Fatal(err)
	}
	if err := sb.Activate(&ccm.Context{Node: "sb-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	defer sb.Passivate()

	expiry := time.Duration(time.Now().Add(time.Hour).UnixNano())
	refX := sched.JobKey{Task: 1, Job: 1}
	pushRep(t, node, RepRecord{
		Epoch: 0, Seq: 1, Kind: RepAdmit, Ref: refX, TaskKind: sched.Aperiodic,
		Placement:   []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.1}, {Stage: 1, Proc: 1, Util: 0.2}},
		ExpiryNanos: int64(expiry),
	})
	st := sb.Stats()
	if st.Applied != 1 || st.ActiveJobs != 1 || st.LastSeq != 1 {
		t.Fatalf("after admit: %+v", st)
	}

	// The mirror applies expiry and withdrawal records.
	pushRep(t, node, RepRecord{Epoch: 0, Seq: 2, Kind: RepExpire, Ref: refX})
	if st = sb.Stats(); st.Applied != 2 || st.ActiveJobs != 0 {
		t.Fatalf("after expire: %+v", st)
	}

	// The epoch fence drops records from the deposed era.
	sb.Fence(5)
	pushRep(t, node, RepRecord{
		Epoch: 2, Seq: 3, Kind: RepAdmit, Ref: sched.JobKey{Task: 2, Job: 9},
		TaskKind:  sched.Aperiodic,
		Placement: []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.1}},
	})
	st = sb.Stats()
	if st.Ignored != 1 || st.ActiveJobs != 0 || st.MinEpoch != 5 {
		t.Fatalf("fence leaked a stale record: %+v", st)
	}
	// Fence never lowers the floor.
	sb.Fence(3)
	if st = sb.Stats(); st.MinEpoch != 5 {
		t.Fatalf("Fence lowered the floor: %+v", st)
	}

	// Post-fence records apply; a task withdrawal clears all its jobs.
	for i, job := range []int64{10, 11} {
		pushRep(t, node, RepRecord{
			Epoch: 5, Seq: 4 + int64(i), Kind: RepAdmit,
			Ref: sched.JobKey{Task: 3, Job: job}, TaskKind: sched.Aperiodic,
			Placement:   []sched.PlacedStage{{Stage: 0, Proc: 1, Util: 0.05}},
			ExpiryNanos: int64(expiry),
		})
	}
	pushRep(t, node, RepRecord{Epoch: 5, Seq: 6, Kind: RepRemove, Ref: sched.JobKey{Task: 3}})
	if st = sb.Stats(); st.ActiveJobs != 0 || st.LastSeq != 6 {
		t.Fatalf("after task withdrawal: %+v", st)
	}

	// Unknown record kinds are counted, not applied.
	pushRep(t, node, RepRecord{Epoch: 5, Seq: 7, Kind: "mystery"})
	if st = sb.Stats(); st.Failed != 1 {
		t.Fatalf("unknown kind not counted: %+v", st)
	}
	if err := sb.Audit(); err != nil {
		t.Fatal(err)
	}

	// Promote hands over the mirror and replaces it with a fresh ledger.
	pushRep(t, node, RepRecord{
		Epoch: 5, Seq: 8, Kind: RepAdmit, Ref: sched.JobKey{Task: 4, Job: 1},
		TaskKind: sched.Periodic, Permanent: true,
		Placement: []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.3}},
	})
	ledger := sb.Promote()
	if ledger == nil || len(ledger.ActiveJobs()) != 1 {
		t.Fatalf("promoted ledger = %v", ledger)
	}
	if err := ledger.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st = sb.Stats(); st.ActiveJobs != 0 {
		t.Fatalf("standby kept jobs after promotion: %+v", st)
	}
	// Late records land on the fresh ledger, not the promoted one.
	pushRep(t, node, RepRecord{
		Epoch: 5, Seq: 9, Kind: RepAdmit, Ref: sched.JobKey{Task: 5, Job: 1},
		TaskKind:    sched.Aperiodic,
		Placement:   []sched.PlacedStage{{Stage: 0, Proc: 1, Util: 0.1}},
		ExpiryNanos: int64(expiry),
	})
	if got := len(ledger.ActiveJobs()); got != 1 {
		t.Errorf("late record corrupted the promoted ledger: %d jobs", got)
	}
	if st = sb.Stats(); st.ActiveJobs != 1 {
		t.Errorf("fresh mirror missed the late record: %+v", st)
	}

	// Seq 1..9 arrived in order, the fenced record included. A gap and a
	// regression are each counted, and still applied.
	if st.OutOfOrder != 0 || st.LastSeq != 9 {
		t.Fatalf("in-order stream counted out of order: %+v", st)
	}
	for _, seq := range []int64{12, 11} {
		pushRep(t, node, RepRecord{
			Epoch: 5, Seq: seq, Kind: RepAdmit, Ref: sched.JobKey{Task: 6, Job: seq},
			TaskKind:    sched.Aperiodic,
			Placement:   []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.01}},
			ExpiryNanos: int64(expiry),
		})
	}
	if st = sb.Stats(); st.OutOfOrder != 2 || st.LastSeq != 12 || st.ActiveJobs != 3 {
		t.Errorf("after a gap and a regression: %+v", st)
	}
}

// TestStandbyACRefusesRefsOutsideItsTable: the mirror indexes jobs densely by
// task ref, so an admit record naming a negative ref, or one the deployment
// never handed out, is counted as failed and allocates nothing per ref.
func TestStandbyACRefusesRefsOutsideItsTable(t *testing.T) {
	node, err := NewNode("sb-refs", -1, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	sb := NewStandbyAC()
	if err := sb.Configure(map[string]string{AttrProcessors: "1", AttrTaskRefs: `["a","b"]`}); err != nil {
		t.Fatal(err)
	}
	if err := sb.Activate(&ccm.Context{Node: "sb-refs", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	defer sb.Passivate()

	admit := func(seq int64, ref sched.TaskRef) {
		t.Helper()
		pushRep(t, node, RepRecord{
			Seq: seq, Kind: RepAdmit, Ref: sched.JobKey{Task: ref, Job: 0}, TaskKind: sched.Aperiodic,
			Placement:   []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.1}},
			ExpiryNanos: int64(time.Hour),
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	admit(1, -1)
	admit(2, math.MaxInt32)
	admit(3, 2)
	runtime.ReadMemStats(&after)
	if st := sb.Stats(); st.Failed != 3 || st.Applied != 0 || st.ActiveJobs != 0 {
		t.Fatalf("after refs -1, MaxInt32 and 2 against a 2-ref table: %+v", st)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refused records allocated %d bytes", grew)
	}

	// A delta's longer table admits the new ref; a shorter one never
	// shrinks it.
	for _, refs := range []string{`["","b","a"]`, `["a"]`} {
		if err := sb.Reconfigure(map[string]string{AttrTaskRefs: refs}); err != nil {
			t.Fatal(err)
		}
	}
	admit(4, 2)
	if st := sb.Stats(); st.Failed != 3 || st.Applied != 1 || st.ActiveJobs != 1 {
		t.Fatalf("after the table grew to 3 refs: %+v", st)
	}
}
