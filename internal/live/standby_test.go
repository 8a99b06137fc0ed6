package live

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
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

// configuredStandby returns a standby over procs processors whose TaskRefs
// table holds refs 0..refs-1, configured but not subscribed: tests hand it
// records through deliverRep.
func configuredStandby(t testing.TB, procs, refs int) *StandbyAC {
	t.Helper()
	names := make([]string, refs)
	for i := range names {
		names[i] = fmt.Sprint("t", i)
	}
	sb := NewStandbyAC()
	if err := sb.Configure(map[string]string{AttrProcessors: fmt.Sprint(procs), AttrTaskRefs: FormatTaskRefs(names)}); err != nil {
		t.Fatal(err)
	}
	return sb
}

// deliverRep hands one replication payload to the standby as its
// subscription would.
func deliverRep(sb *StandbyAC, payload []byte) {
	sb.onReplicate(eventchan.Event{Type: EvReplicate, Payload: payload})
}

// TestStandbyACRefusesOutOfRangeUtil: an admit or relocate record whose
// placement carries a C/D the ledger refuses (NaN, negative) counts as
// failed and changes nothing, so the ledger a promotion hands over never
// holds such a value.
func TestStandbyACRefusesOutOfRangeUtil(t *testing.T) {
	sb := configuredStandby(t, 2, 2)
	held := sched.JobKey{Task: 0, Job: 0}
	good := []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.2}}
	deliverRep(sb, AppendRepRecord(nil, &RepRecord{Seq: 1, Kind: RepAdmit, Ref: held,
		TaskKind: sched.Periodic, Placement: good, Permanent: true}))
	seq := int64(1)
	for _, u := range []float64{math.NaN(), -0.25} {
		bad := []sched.PlacedStage{{Stage: 0, Proc: 1, Util: u}}
		seq++
		deliverRep(sb, AppendRepRecord(nil, &RepRecord{Seq: seq, Kind: RepAdmit, Ref: sched.JobKey{Task: 1, Job: seq},
			TaskKind: sched.Aperiodic, Placement: bad, ExpiryNanos: int64(time.Hour)}))
		seq++
		deliverRep(sb, AppendRepRecord(nil, &RepRecord{Seq: seq, Kind: RepRelocate, Ref: held, Placement: bad}))
	}
	if st := sb.Stats(); st.Applied != 1 || st.Failed != 4 || st.ActiveJobs != 1 {
		t.Fatalf("after one admit and four out-of-range records: %+v", st)
	}
	if err := sb.Audit(); err != nil {
		t.Fatal(err)
	}
	want := sched.NewLedger(2)
	if err := want.AddJob(held, sched.Periodic, good, true, 0); err != nil {
		t.Fatal(err)
	}
	if got := sb.Promote().Utils(); !slices.Equal(got, want.Utils()) {
		t.Errorf("mirror utilizations %v, want the one admit's %v", got, want.Utils())
	}
}

// FuzzStandbyReplicate feeds the standby's apply path a sequence of
// replication payloads, each prefixed by its length in one byte. Contract:
// no panic, the mirror ledger passes its audit after every record, and every
// record delivered is counted once as applied, ignored or failed. The seeds
// are the codec's golden RepRecord under each record kind, one by one and
// as one admit-to-removal sequence.
func FuzzStandbyReplicate(f *testing.F) {
	var golden RepRecord
	for _, c := range payloadCodecs {
		if c.name == "RepRecord" {
			golden = c.golden.(RepRecord)
		}
	}
	var all []byte
	for i, kind := range []string{RepAdmit, RepRelocate, RepReset, RepExpire, RepWithdraw, RepRemove} {
		rec := golden
		rec.Kind, rec.Seq = kind, int64(i+1)
		one := AppendRepRecord(nil, &rec)
		f.Add(append([]byte{byte(len(one))}, one...))
		all = append(append(all, byte(len(one))), one...)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		sb := configuredStandby(t, 4, 8)
		delivered := int64(0)
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			deliverRep(sb, data[1:1+n])
			data = data[1+n:]
			delivered++
			if err := sb.Audit(); err != nil {
				t.Fatalf("record %d: %v", delivered, err)
			}
		}
		if st := sb.Stats(); st.Applied+st.Ignored+st.Failed != delivered {
			t.Fatalf("%d records delivered, stats count %+v", delivered, st)
		}
	})
}
