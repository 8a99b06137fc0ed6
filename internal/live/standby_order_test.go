package live

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ccm"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

// mirrorWorkload builds a three-processor task set in which worker w owns
// one periodic task (replicated, so LB-per-job relocates it) and one
// aperiodic task; deadlines are an hour, so nothing expires on its own, and
// utilizations are small, so nearly everything is admitted.
func mirrorWorkload(workers int) string {
	var tasks []string
	for w := 0; w < workers; w++ {
		a, b := w%3, (w+1)%3
		tasks = append(tasks, fmt.Sprintf(`
    {"id": "p%d", "kind": "periodic", "period": "1h", "deadline": "1h",
     "subtasks": [{"exec": "1s", "processor": %d, "replicas": [%d]}, {"exec": "2s", "processor": %d}]}`, w, a, b, b))
		tasks = append(tasks, fmt.Sprintf(`
    {"id": "a%d", "kind": "aperiodic", "deadline": "1h",
     "subtasks": [{"exec": "1s", "processor": %d}, {"exec": "1s", "processor": %d}]}`, w, b, a))
	}
	return `{"name": "mirror", "processors": 3, "tasks": [` + strings.Join(tasks, ",") + `]}`
}

// mirrorRefs is mirrorWorkload's TaskRefs table: worker w's periodic task
// holds ref 2w and its aperiodic task ref 2w+1.
func mirrorRefs(workers int) string {
	var names []string
	for w := 0; w < workers; w++ {
		names = append(names, fmt.Sprintf("p%d", w), fmt.Sprintf("a%d", w))
	}
	return FormatTaskRefs(names)
}

// TestStandbyMirrorMatchesSourceOverORB is the replication-order property:
// a real AdmissionController on one node replicates, over a real ORB
// connection, to a StandbyAC on another, while concurrent workers drive it
// with seeded random arrivals (admit, relocate), expiries and idle resets,
// and the test swaps strategies (withdraw) and removes tasks (remove) between
// rounds.
// The records the standby's node receives must be the records the AC emitted,
// in Seq order with none out of order, and the mirror ledger must hold the
// source ledger's jobs and utilizations.
func TestStandbyMirrorMatchesSourceOverORB(t *testing.T) {
	const workers = 4
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			acNode, err := NewNode("mirror-ac", -1, "127.0.0.1:0", 1)
			if err != nil {
				t.Fatal(err)
			}
			defer acNode.Close()
			sbNode, err := NewNode("mirror-sb", -1, "127.0.0.1:0", 1)
			if err != nil {
				t.Fatal(err)
			}
			defer sbNode.Close()
			acNode.Channel.AddRemoteSink(EvReplicate, sbNode.Addr)

			// What was sent, in emission order (the AC pushes under its
			// replication mutex), and what arrived, in arrival order (one
			// connection, so one reader).
			var sent, received [][]byte
			var sentMu, recvMu sync.Mutex
			acNode.Channel.Subscribe(EvReplicate, func(ev eventchan.Event) {
				sentMu.Lock()
				sent = append(sent, bytes.Clone(ev.Payload))
				sentMu.Unlock()
			})
			sbNode.Channel.Subscribe(EvReplicate, func(ev eventchan.Event) {
				recvMu.Lock()
				received = append(received, bytes.Clone(ev.Payload))
				recvMu.Unlock()
			})

			sb := NewStandbyAC()
			if err := sb.Configure(map[string]string{AttrProcessors: "3", AttrTaskRefs: mirrorRefs(workers)}); err != nil {
				t.Fatal(err)
			}
			if err := sb.Activate(&ccm.Context{Node: sbNode.Name, ORB: sbNode.ORB, Events: sbNode.Channel}); err != nil {
				t.Fatal(err)
			}
			defer sb.Passivate()

			ac := NewAdmissionController()
			if err := ac.Configure(map[string]string{
				AttrACStrategy: "T", AttrIRStrategy: "T", AttrLBStrategy: "J",
				AttrProcessors: "3", AttrWorkload: mirrorWorkload(workers), AttrTaskRefs: mirrorRefs(workers),
				AttrReplicate: "true",
			}); err != nil {
				t.Fatal(err)
			}
			if err := ac.Activate(&ccm.Context{Node: acNode.Name, ORB: acNode.ORB, Events: acNode.Channel}); err != nil {
				t.Fatal(err)
			}
			defer ac.Passivate()

			// One round: every worker performs ops on the tasks it owns.
			// Arrivals of one task come from one goroutine, as they come
			// from one effector's connection in a cluster.
			jobs := make([]int64, workers)
			round := func(r int) {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed*1000 + int64(r*workers+w)))
						var refs []sched.JobKey
						for i := 0; i < 150; i++ {
							switch op := rng.Intn(10); {
							case op < 6:
								task := sched.TaskRef(2*w + rng.Intn(2))
								jobs[w]++
								ref := sched.JobKey{Task: task, Job: jobs[w]}
								refs = append(refs, ref)
								arr := TaskArrive{Task: task, Job: ref.Job, Proc: w % 3, ArrivalNanos: time.Now().UnixNano()}
								ac.onTaskArrive(eventchan.Event{Type: EvTaskArrive, Payload: AppendTaskArrive(nil, &arr)})
							case op < 8 && len(refs) > 0:
								ac.expire(refs[rng.Intn(len(refs))])
							case len(refs) > 0:
								proc := rng.Intn(3)
								rep := IdleReset{Proc: proc, Entries: []sched.Entry[sched.JobKey]{
									{Ref: refs[rng.Intn(len(refs))], Stage: rng.Intn(2), Proc: proc},
								}}
								ac.onIdleReset(eventchan.Event{Type: EvIdleReset, Payload: AppendIdleReset(nil, &rep)})
							}
						}
					}(w)
				}
				wg.Wait()
			}
			swap := func(attrs map[string]string) {
				t.Helper()
				if _, err := ac.Quiesce(); err != nil {
					t.Fatal(err)
				}
				if err := ac.Reconfigure(attrs); err != nil {
					t.Fatal(err)
				}
				if _, err := ac.Resume(); err != nil {
					t.Fatal(err)
				}
			}

			round(0) // T_T_J: reservations and relocations
			// Away from per-task admission: the reservations are withdrawn.
			swap(map[string]string{AttrACStrategy: "J", AttrIRStrategy: "J"})
			round(1) // J_J_J: every job tested, per-job resets
			// The last worker's tasks leave: their contributions are withdrawn.
			swap(map[string]string{AttrWorkload: mirrorWorkload(workers - 1), AttrTaskRefs: mirrorRefs(workers - 1)})
			round(2)

			ac.repMu.Lock()
			emitted := ac.repSeq
			ac.repMu.Unlock()
			deadline := time.Now().Add(20 * time.Second)
			for sb.Stats().LastSeq < emitted && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}

			st := sb.Stats()
			if st.LastSeq != emitted || st.OutOfOrder != 0 || st.Failed != 0 || st.Ignored != 0 {
				t.Fatalf("standby after %d records: %+v", emitted, st)
			}
			sentMu.Lock()
			recvMu.Lock()
			defer sentMu.Unlock()
			defer recvMu.Unlock()
			if int64(len(sent)) != emitted || len(received) != len(sent) {
				t.Fatalf("emitted %d records, saw %d sent and %d received", emitted, len(sent), len(received))
			}
			kinds := make(map[string]int)
			for i := range sent {
				if !bytes.Equal(sent[i], received[i]) {
					t.Fatalf("record %d differs between source and mirror:\n sent %x\n got  %x", i, sent[i], received[i])
				}
				rec, err := DecodeRepRecord(sent[i])
				if err != nil {
					t.Fatal(err)
				}
				if rec.Seq != int64(i+1) {
					t.Fatalf("record %d was emitted with Seq %d", i, rec.Seq)
				}
				kinds[rec.Kind]++
			}
			for _, k := range []string{RepAdmit, RepExpire, RepReset, RepWithdraw, RepRemove, RepRelocate} {
				if kinds[k] == 0 {
					t.Errorf("the run emitted no %s record: %v", k, kinds)
				}
			}

			src := ac.Controller().Ledger()
			mirror := sb.Promote()
			want, got := src.ActiveJobs(), mirror.ActiveJobs()
			if !slices.Equal(want, got) {
				t.Errorf("mirror holds %d jobs, source %d:\n mirror %v\n source %v", len(got), len(want), got, want)
			}
			for p, u := range src.Utils() {
				if m := mirror.Util(p); math.Abs(m-u) > 1e-9 {
					t.Errorf("processor %d: mirror utilization %.12f, source %.12f", p, m, u)
				}
			}
			if err := src.CheckInvariants(); err != nil {
				t.Errorf("source ledger: %v", err)
			}
			if err := mirror.CheckInvariants(); err != nil {
				t.Errorf("mirror ledger: %v", err)
			}
		})
	}
}
