package rtmw_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rtmw "repro"
	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/experiments"
	"repro/internal/orb"
	"repro/internal/sched"
	"repro/internal/workload"
)

// --- Figure 5: accepted utilization ratio, random balanced workloads ---
//
// Each sub-benchmark runs one strategy combination over the paper's full
// parameters (10 task sets, 5 simulated minutes). The reported wall time is
// the cost of regenerating that figure series.

func BenchmarkFigure5(b *testing.B) {
	for _, combo := range rtmw.AllCombinations() {
		combo := combo
		b.Run(combo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := experiments.RunFigure5(experiments.FigureOptions{
					Sets:    10,
					Horizon: 5 * time.Minute,
					Combos:  []rtmw.Config{combo},
				})
				if err != nil {
					b.Fatal(err)
				}
				if results[0].Mean <= 0 {
					b.Fatalf("combo %s produced zero ratio", combo)
				}
			}
		})
	}
}

// --- Figure 6: accepted utilization ratio, imbalanced workloads ---

func BenchmarkFigure6(b *testing.B) {
	for _, combo := range rtmw.AllCombinations() {
		combo := combo
		b.Run(combo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := experiments.RunFigure6(experiments.FigureOptions{
					Sets:    10,
					Horizon: 5 * time.Minute,
					Combos:  []rtmw.Config{combo},
				})
				if err != nil {
					b.Fatal(err)
				}
				if results[0].Mean <= 0 {
					b.Fatalf("combo %s produced zero ratio", combo)
				}
			}
		})
	}
}

// --- Table 1 / Figure 2: the configuration engine's strategy mapping ---

func BenchmarkTable1Mapping(b *testing.B) {
	bools := []bool{false, true}
	tols := []rtmw.Tolerance{rtmw.ToleranceNone, rtmw.TolerancePerTask, rtmw.TolerancePerJob}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, js := range bools {
			for _, rep := range bools {
				for _, sp := range bools {
					for _, tol := range tols {
						r := rtmw.MapAnswers(rtmw.Answers{
							JobSkipping: js, Replication: rep,
							StatePersistence: sp, Overhead: tol,
						})
						if err := r.Config.Validate(); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// --- Figure 7/8 primitive operations ---
//
// These isolate the manager-side computations the paper's overhead table
// decomposes (operations 3, 4 and 8) and the transport costs (operation 2).
// The full composed Figure 8 table is produced by `rtmw-bench overhead`,
// which runs the live cluster.

// benchController builds a controller pre-loaded with a Section 7.3-style
// task set.
func benchController(b *testing.B, cfg core.Config) (*core.Controller, []*sched.Task) {
	b.Helper()
	tasks, err := workload.Generate(workload.OverheadParams(0))
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := core.NewController(cfg, workload.MaxProc(tasks)+1)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Duration(0)
	for _, t := range tasks {
		ctrl.Arrive(t, 0, now)
	}
	return ctrl, tasks
}

// BenchmarkAdmissionTest measures operation 4: one AUB admission test
// against a populated ledger.
func BenchmarkAdmissionTest(b *testing.B) {
	ctrl, tasks := benchController(b, core.Config{
		AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyNone,
	})
	placement := make([]sched.PlacedStage, len(tasks[0].Subtasks))
	for i, st := range tasks[0].Subtasks {
		placement[i] = sched.PlacedStage{Stage: i, Proc: st.Processor, Util: tasks[0].StageUtil(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Ledger().Admissible(placement)
	}
}

// BenchmarkAdmissionParallel measures aggregate admission throughput with
// every worker contending for the ledger's one mutex: each runs a TestAndAdd
// + WithdrawJob churn loop on its own processor. submits/sec is the
// aggregate throughput metric; allocs/op must stay 0 on the steady state.
func BenchmarkAdmissionParallel(b *testing.B) {
	const procs = 8
	// Pre-build per-worker state outside the timed region: RunParallel
	// spawns at most GOMAXPROCS workers.
	type workerState struct {
		task      string
		placement []sched.PlacedStage
	}
	states := make([]workerState, 64)
	for w := range states {
		states[w] = workerState{
			task:      fmt.Sprintf("par-%d", w),
			placement: []sched.PlacedStage{{Stage: 0, Proc: w % procs, Util: 0.001}},
		}
	}
	ledger := sched.NewShardedLedger(procs, 1)
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		st := &states[int(worker.Add(1)-1)%len(states)]
		job := int64(0)
		for pb.Next() {
			ref := sched.JobRef{Task: st.task, Job: job}
			job++
			ok, err := ledger.TestAndAdd(ref, sched.Aperiodic, st.placement, false, time.Hour)
			if err != nil || !ok {
				b.Errorf("admission failed: ok=%v err=%v", ok, err)
				return
			}
			if n := ledger.WithdrawJob(ref); n != 1 {
				b.Errorf("withdraw removed %d contributions", n)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "submits/sec")
}

// BenchmarkLocationPlan measures operation 3: the load balancer's greedy
// lowest-utilization placement.
func BenchmarkLocationPlan(b *testing.B) {
	ctrl, tasks := benchController(b, core.Config{
		AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyPerJob,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Location(tasks[i%len(tasks)], int64(i))
	}
}

// BenchmarkIdleResetUpdate measures operation 8: applying an idle-resetting
// report to the synthetic utilization ledger.
func BenchmarkIdleResetUpdate(b *testing.B) {
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyNone}
	tasks, err := workload.Generate(workload.OverheadParams(0))
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := core.NewController(cfg, workload.MaxProc(tasks)+1)
	if err != nil {
		b.Fatal(err)
	}
	t0 := tasks[0]
	placement := []sched.PlacedStage{{Stage: 0, Proc: t0.Subtasks[0].Processor, Util: t0.StageUtil(0)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := sched.JobRef{Task: t0.ID, Job: int64(i)}
		if d := ctrl.Arrive(t0, int64(i), time.Duration(i)); !d.Accept {
			b.Fatal("benchmark job rejected")
		}
		ctrl.IdleReset([]sched.EntryRef{{Ref: ref, Stage: 0, Proc: placement[0].Proc}})
		ctrl.ExpireJob(ref)
	}
}

// BenchmarkORBInvoke measures a two-way invocation round trip over TCP
// loopback (the transport under operation 2).
func BenchmarkORBInvoke(b *testing.B) {
	server := orb.New("bench-server")
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer server.Shutdown()
	server.RegisterServant("echo", func(op string, arg []byte) ([]byte, error) { return arg, nil })
	client := orb.New("bench-client")
	defer client.Shutdown()
	payload := []byte("ping")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Invoke(ctx, addr.String(), "echo", "op", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventChannelLocal measures a local event push with one
// subscriber.
func BenchmarkEventChannelLocal(b *testing.B) {
	o := orb.New("bench-local")
	defer o.Shutdown()
	ch := eventchan.New("bench-local", o)
	n := 0
	ch.Subscribe("E", func(eventchan.Event) { n++ })
	ev := eventchan.Event{Type: "E", Payload: []byte("x")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.Push(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventChannelFederated measures a one-way cross-node event push
// (operation 2's one-way half), including event framing and the TCP hop.
func BenchmarkEventChannelFederated(b *testing.B) {
	producerORB := orb.New("bench-prod")
	defer producerORB.Shutdown()
	consumerORB := orb.New("bench-cons")
	addr, err := consumerORB.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer consumerORB.Shutdown()

	producer := eventchan.New("bench-prod", producerORB)
	consumer := eventchan.New("bench-cons", consumerORB)
	got := make(chan struct{}, 1024)
	consumer.Subscribe("E", func(eventchan.Event) { got <- struct{}{} })
	producer.AddRemoteSink("E", addr.String())
	ev := eventchan.Event{Type: "E", Payload: []byte("x")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := producer.Push(ev); err != nil {
			b.Fatal(err)
		}
		<-got
	}
}

// BenchmarkAdmissionTestScaling measures operation 4 as the current task
// set grows, supporting the paper's Section 3 argument that the centralized
// admission controller's computation "is significantly lower than task
// execution times" and does not bottleneck the architecture. The test's cost
// follows the signature groups indexed under the candidate's processors, not
// the jobs: the jobs= rows hold the groups at five (single-stage jobs
// collapse into one group per processor) and should stay flat as the
// in-flight count grows; the groups= rows hold two jobs per group and grow
// the number of distinct three-stage signatures that all visit the
// candidate's processor, and should grow about linearly — cheaply, because
// every group's cached sum leaves room for the candidate and none is summed.
// The groups=512/tight row is the worst case kept in view: a second candidate
// stage on a processor no job visits grows the bound past what any group's
// cached sum leaves room for, so all 512 are summed. Every row must read
// 0 allocs/op at steady state.
func BenchmarkAdmissionTestScaling(b *testing.B) {
	light := []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.01}}
	run := func(name string, procs int, cand []sched.PlacedStage, fill func(*sched.ShardedLedger)) {
		b.Run(name, func(b *testing.B) {
			ctrl, err := core.NewController(core.Config{
				AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyNone,
			}, procs)
			if err != nil {
				b.Fatal(err)
			}
			ledger := ctrl.Ledger()
			fill(ledger)
			if !ledger.Admissible(cand) {
				b.Fatal("candidate rejected: the scan would stop at the first failing group")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ledger.Admissible(cand)
			}
		})
	}
	for _, n := range []int{10, 100, 1000, 10000, 100000} {
		n := n
		run(fmt.Sprintf("jobs=%d", n), 5, light, func(ledger *sched.ShardedLedger) {
			// n in-flight single-stage jobs.
			for i := 0; i < n; i++ {
				ref := sched.JobRef{Task: "bg", Job: int64(i)}
				pl := []sched.PlacedStage{{Stage: 0, Proc: i % 5, Util: 0.4 / float64(n) * 5}}
				if err := ledger.AddJob(ref, sched.Aperiodic, pl, false, time.Hour); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// 34 processors make C(33,2) = 528 signatures {0, a, b}; processor 0 ends
	// at utilization 0.2 and no other exceeds it, so every job's condition
	// holds and an accepting test looks at every group.
	const groupProcs = 34
	fillGroups := func(groups int) func(*sched.ShardedLedger) {
		return func(ledger *sched.ShardedLedger) {
			x := 0.2 / float64(2*groups)
			n := 0
			for a := 1; a < groupProcs && n < groups; a++ {
				for c := a + 1; c < groupProcs && n < groups; c++ {
					for j := 0; j < 2; j++ {
						ref := sched.JobRef{Task: "bg", Job: int64(2*n + j)}
						pl := []sched.PlacedStage{
							{Stage: 0, Proc: 0, Util: x},
							{Stage: 1, Proc: a, Util: x},
							{Stage: 2, Proc: c, Util: x},
						}
						if err := ledger.AddJob(ref, sched.Aperiodic, pl, false, time.Hour); err != nil {
							b.Fatal(err)
						}
					}
					n++
				}
			}
		}
	}
	for _, groups := range []int{8, 64, 512} {
		run(fmt.Sprintf("groups=%d", groups), groupProcs, light, fillGroups(groups))
	}
	// Processor 34 carries nothing; f(0.5) = 0.75 on it is growth no group's
	// 0.26 leaves room for, and the candidate's own 0.24 + 0.75 still holds.
	tight := []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.01}, {Stage: 1, Proc: groupProcs, Util: 0.5}}
	run("groups=512/tight", groupProcs+1, tight, fillGroups(512))
}

// BenchmarkFigureRunner measures one Figure 5 sweep (all 15 combinations)
// through the experiment harness at different worker counts; workers=1 is
// the serial baseline, so the ratio between sub-benchmarks is the
// parallel-runner speedup on this machine. jobs/sec and allocs/job are
// reported as custom metrics so the perf trajectory stays comparable across
// machines (ns/op is hardware-bound; allocations per simulated job are not).
func BenchmarkFigureRunner(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var jobs int64
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := experiments.RunFigure5(experiments.FigureOptions{
					Sets:    2,
					Horizon: 30 * time.Second,
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != 15 {
					b.Fatalf("got %d combos, want 15", len(results))
				}
				for _, r := range results {
					jobs += r.Jobs
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			if jobs > 0 {
				b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/sec")
				b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(jobs), "allocs/job")
			}
		})
	}
}

// BenchmarkEventFanout measures gateway fan-out cost as the number of remote
// sinks grows (the federated event channel's scalability axis).
func BenchmarkEventFanout(b *testing.B) {
	for _, sinks := range []int{1, 2, 4} {
		sinks := sinks
		b.Run(fmt.Sprintf("sinks=%d", sinks), func(b *testing.B) {
			producerORB := orb.New("fan-prod")
			defer producerORB.Shutdown()
			producer := eventchan.New("fan-prod", producerORB)
			got := make(chan struct{}, 4096)
			for i := 0; i < sinks; i++ {
				consORB := orb.New(fmt.Sprintf("fan-cons%d", i))
				addr, err := consORB.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer consORB.Shutdown()
				cons := eventchan.New(fmt.Sprintf("fan-cons%d", i), consORB)
				cons.Subscribe("E", func(eventchan.Event) { got <- struct{}{} })
				producer.AddRemoteSink("E", addr.String())
			}
			ev := eventchan.Event{Type: "E", Payload: []byte("x")}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := producer.Push(ev); err != nil {
					b.Fatal(err)
				}
				for s := 0; s < sinks; s++ {
					<-got
				}
			}
		})
	}
}

// --- Event plane: federated throughput, group commit vs one push per event ---

// benchEventPlane measures end-to-end federated event throughput: pubs
// goroutines push b.N events total through one gateway to a remote
// consumer, and the benchmark ends when the last event is delivered.
// batched selects Push (the gateway's group commit); otherwise every event
// goes out as its own scalar ORB push (PushUrgent), so the ratio between
// the two modes is what the gateway batching buys.
func benchEventPlane(b *testing.B, pubs int, batched bool) {
	producerORB := orb.New("plane-prod")
	defer producerORB.Shutdown()
	consumerORB := orb.New("plane-cons")
	addr, err := consumerORB.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer consumerORB.Shutdown()

	// Block policy: publishers throttle to the gateway's drain rate instead
	// of ballooning the pending backlog, so the measurement is of the
	// transport, not of the garbage collector.
	producer := eventchan.New("plane-prod", producerORB, eventchan.WithSinkPolicy(eventchan.Block))
	consumer := eventchan.New("plane-cons", consumerORB)
	total := int64(b.N)
	var got atomic.Int64
	done := make(chan struct{})
	consumer.Subscribe("E", func(eventchan.Event) {
		if got.Add(1) == total {
			close(done)
		}
	})
	producer.AddRemoteSink("E", addr.String())
	push := (*eventchan.Channel).Push
	if !batched {
		push = (*eventchan.Channel).PushUrgent
	}
	payload := []byte("0123456789abcdef")

	// Settle garbage from prior (sub-)benchmark runs so each mode measures
	// its own allocation behavior, not its predecessor's heap.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		n := b.N / pubs
		if p < b.N%pubs {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := push(producer, eventchan.Event{Type: "E", Payload: payload}); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		b.Fatalf("delivered %d/%d events", got.Load(), total)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEventPlane is the scaling series behind the gateway's group
// commit: compare batched vs single at each publisher count.
func BenchmarkEventPlane(b *testing.B) {
	for _, pubs := range []int{1, 8, 64} {
		pubs := pubs
		b.Run(fmt.Sprintf("batched/publishers=%d", pubs), func(b *testing.B) { benchEventPlane(b, pubs, true) })
		b.Run(fmt.Sprintf("single/publishers=%d", pubs), func(b *testing.B) { benchEventPlane(b, pubs, false) })
	}
}

// BenchmarkORBOneWayStream isolates the transport half: a stream of one-way
// invocations on one pooled connection through the batched writer, at 1 and
// 16 concurrent senders.
func BenchmarkORBOneWayStream(b *testing.B) {
	for _, senders := range []int{1, 16} {
		senders := senders
		b.Run(fmt.Sprintf("batched/senders=%d", senders), func(b *testing.B) {
			server := orb.New("stream-server")
			addr, err := server.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer server.Shutdown()
			total := int64(b.N)
			var got atomic.Int64
			done := make(chan struct{})
			server.RegisterServant("sink", func(op string, arg []byte) ([]byte, error) {
				if got.Add(1) == total {
					close(done)
				}
				return nil, nil
			})
			client := orb.New("stream-client")
			defer client.Shutdown()
			payload := []byte("0123456789abcdef")
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				n := b.N / senders
				if s < b.N%senders {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := client.InvokeOneWay(addr.String(), "sink", "push", payload); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				b.Fatalf("dispatched %d/%d one-ways", got.Load(), total)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
		})
	}
}

// --- Section 2 ablation: AUB vs deferrable-server admission ---

// BenchmarkAblationAUBvsDS measures one full replay of identical aperiodic
// streams through both admission techniques (the comparison that justified
// the paper's choice of AUB).
func BenchmarkAblationAUBvsDS(b *testing.B) {
	opts := experiments.AblationOptions{Procs: 3, Tasks: 9, Horizon: time.Minute, Seeds: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunAblationAUBvsDS(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 2 {
			b.Fatal("missing technique results")
		}
	}
}

// --- Simulation engine throughput (substrate ablation) ---

// BenchmarkSimulation measures one full 5-minute virtual run of the J_J_J
// configuration over a Figure 5 workload: the cost of the DES substrate
// itself. jobs/sec and allocs/job ride along as custom metrics for the
// cross-machine perf trajectory. The pre-pool engine (retained in
// internal/des reference_test.go) ran this at ~30.8k allocs/op; the pooled core
// is the same workload at ~1.1k — see BENCH_baseline.json for the guarded
// values.
func BenchmarkSimulation(b *testing.B) {
	tasks, err := rtmw.GenerateWorkload(rtmw.Figure5Params(0))
	if err != nil {
		b.Fatal(err)
	}
	cfg := rtmw.SimConfig{
		Strategies: rtmw.Config{AC: rtmw.StrategyPerJob, IR: rtmw.StrategyPerJob, LB: rtmw.StrategyPerJob},
		NumProcs:   5,
		Horizon:    5 * time.Minute,
		Seed:       1,
	}
	var jobs int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := rtmw.NewSimBinding(cfg, tasks)
		if err != nil {
			b.Fatal(err)
		}
		m := sim.Run()
		jobs += m.Total.Arrived
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if jobs > 0 {
		b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/sec")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(jobs), "allocs/job")
	}
}

// --- Reconfiguration: the quiesce → swap → resume transaction ---

// BenchmarkReconfigure measures the hot-reconfiguration machinery on both
// bindings. sim-run is a full one-minute virtual run with a T_N_N → J_J_J
// swap at 30s (its allocations are deterministic per workload and guarded
// by benchguard); live-swap drives repeated full two-phase transactions —
// quiesce over the ORB, per-node strategy swaps, route wiring, resume —
// against a running in-process cluster, reporting the mean quiesce latency
// as quiesce-ns.
func BenchmarkReconfigure(b *testing.B) {
	b.Run("sim-run", func(b *testing.B) {
		tasks, err := rtmw.GenerateWorkload(rtmw.Figure5Params(0))
		if err != nil {
			b.Fatal(err)
		}
		from, _ := rtmw.ParseConfig("T_N_N")
		to, _ := rtmw.ParseConfig("J_J_J")
		cfg := rtmw.SimConfig{Strategies: from, NumProcs: 5, Horizon: time.Minute, Seed: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim, err := rtmw.NewSimBinding(cfg, tasks)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.ScheduleReconfig(30*time.Second, to); err != nil {
				b.Fatal(err)
			}
			m := sim.Run()
			if m.Total.Released != m.Total.Completed {
				b.Fatalf("jobs lost: %+v", m.Total)
			}
		}
	})
	b.Run("live-swap", func(b *testing.B) {
		w, err := rtmw.ParseWorkload([]byte(`{
		  "name": "bench-reconfig",
		  "processors": 2,
		  "tasks": [
		    {"id": "flow", "kind": "periodic", "period": "80ms", "deadline": "80ms",
		     "subtasks": [
		       {"exec": "4ms", "processor": 0, "replicas": [1]},
		       {"exec": "3ms", "processor": 1}
		     ]},
		    {"id": "alert", "kind": "aperiodic", "deadline": "60ms", "meanInterarrival": "70ms",
		     "subtasks": [{"exec": "2ms", "processor": 1}]}
		  ]
		}`))
		if err != nil {
			b.Fatal(err)
		}
		start, _ := rtmw.ParseConfig("J_J_J")
		alt, _ := rtmw.ParseConfig("J_T_N")
		c, err := rtmw.StartLiveBinding(rtmw.ClusterOptions{Workload: w, Config: start, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		targets := []rtmw.Config{alt, start}
		var quiesce time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := c.Reconfigure(targets[i%2])
			if err != nil {
				b.Fatal(err)
			}
			quiesce += rep.Quiesce
		}
		b.StopTimer()
		b.ReportMetric(float64(quiesce.Nanoseconds())/float64(b.N), "quiesce-ns")
	})
}

// BenchmarkChurn measures the open-world lifecycle machinery: one churn
// trial per iteration — a Figure 5 workload under the fully dynamic J_J_J
// combination with tenants joining (AddTasks + SubmitBatch bursts) and
// leaving (RemoveTasks) on fixed virtual-time schedules, observed by an
// always-on watch stream, finished by the ledger invariant audit. Its
// allocations are deterministic per workload and guarded by benchguard;
// jobs/sec rides along for the cross-machine perf trajectory.
func BenchmarkChurn(b *testing.B) {
	opts := experiments.ChurnOptions{
		Combos:  []rtmw.Config{{AC: rtmw.StrategyPerJob, IR: rtmw.StrategyPerJob, LB: rtmw.StrategyPerJob}},
		Sets:    1,
		Horizon: 30 * time.Second,
		Workers: 1,
	}
	var jobs int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunChurn(opts)
		if err != nil {
			b.Fatal(err)
		}
		r := results[0]
		if r.Lost != 0 || !r.WatchOrdered || r.TasksAdded == 0 || r.TasksRemoved == 0 {
			b.Fatalf("bad churn trial: %+v", r)
		}
		jobs += r.Arrived
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if jobs > 0 {
		b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/sec")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(jobs), "allocs/job")
	}
}

// BenchmarkSimHotPath measures the pooled simulation core end to end at the
// scale sweep's platform sizes: one virtual second of the fully dynamic
// J_J_J middleware per iteration, reporting events/sec, jobs/sec and
// allocs/job. The 200-processor/50k-task point is the regime the
// allocation-free rewrite targets — the paper's experiments at 40× the
// testbed's processor count.
func BenchmarkSimHotPath(b *testing.B) {
	for _, pt := range []struct{ procs, tasks int }{{5, 100}, {50, 10_000}, {200, 50_000}} {
		pt := pt
		b.Run(fmt.Sprintf("procs=%d/tasks=%d", pt.procs, pt.tasks), func(b *testing.B) {
			tasks, err := rtmw.GenerateWorkload(rtmw.ScaleWorkloadParams(pt.procs, pt.tasks, 0))
			if err != nil {
				b.Fatal(err)
			}
			cfg := rtmw.SimConfig{
				Strategies: rtmw.Config{AC: rtmw.StrategyPerJob, IR: rtmw.StrategyPerJob, LB: rtmw.StrategyPerJob},
				NumProcs:   pt.procs,
				Horizon:    time.Second,
				Seed:       1,
			}
			var jobs, events int64
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim, err := rtmw.NewSimBinding(cfg, tasks)
				if err != nil {
					b.Fatal(err)
				}
				m := sim.Run()
				jobs += m.Total.Arrived
				events += sim.Engine().Fired()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			if jobs > 0 {
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
				b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/sec")
				b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(jobs), "allocs/job")
			}
		})
	}
}

// simBuildSink keeps BenchmarkSimBuild's result alive.
var simBuildSink *rtmw.SimSystem

// BenchmarkSimBuild measures what a simulation request costs before its first
// event: NewSimSystem over the repo benchmark's sim-sweep shape (validate,
// clone, EDMS priorities, name index). allocs/op is enforced in
// BENCH_baseline.json: the build is three slabs and one index whatever the
// task count, so a per-task allocation shows as thousands.
func BenchmarkSimBuild(b *testing.B) {
	const procs, numTasks = 50, 10_000
	b.Run(fmt.Sprintf("procs=%d/tasks=%d", procs, numTasks), func(b *testing.B) {
		tasks, err := rtmw.GenerateWorkload(rtmw.ScaleWorkloadParams(procs, numTasks, 0))
		if err != nil {
			b.Fatal(err)
		}
		cfg := rtmw.SimConfig{
			Strategies: rtmw.Config{AC: rtmw.StrategyPerJob, IR: rtmw.StrategyPerJob, LB: rtmw.StrategyPerJob},
			NumProcs:   procs,
			Seed:       1,
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim, err := rtmw.NewSimBinding(cfg, tasks)
			if err != nil {
				b.Fatal(err)
			}
			simBuildSink = sim
		}
	})
}

// BenchmarkFailover measures the node-loss survival cycle on a live
// three-processor cluster with full replica coverage: per iteration a burst
// of submissions is followed by a hard node kill, the zero-loss failover
// transaction (quiesce → processor-removal delta → standby fence →
// dead-letter redelivery), and the node's recovery via plan redeploy. The
// first iteration pays the workload surgery that evacuates the victim
// processor; later iterations measure the bare transaction plus recovery on
// an already-evacuated processor. failover-ns isolates the Failover call
// from the recovery cost; quiesce-ns is the admission-quiesce span within
// it. Allocations are transport-heavy (a fresh node per recovery), so the
// baseline tolerance is generous.
func BenchmarkFailover(b *testing.B) {
	w, err := rtmw.ParseWorkload([]byte(`{
	  "name": "bench-failover",
	  "processors": 3,
	  "tasks": [
	    {"id": "cam", "kind": "aperiodic", "deadline": "500ms", "meanInterarrival": "250ms",
	     "subtasks": [
	       {"exec": "3ms", "processor": 0, "replicas": [2]},
	       {"exec": "2ms", "processor": 1, "replicas": [2]}
	     ]},
	    {"id": "lidar", "kind": "aperiodic", "deadline": "400ms", "meanInterarrival": "250ms",
	     "subtasks": [{"exec": "4ms", "processor": 1, "replicas": [0]}]},
	    {"id": "fuse", "kind": "aperiodic", "deadline": "600ms", "meanInterarrival": "250ms",
	     "subtasks": [
	       {"exec": "3ms", "processor": 2, "replicas": [0]},
	       {"exec": "2ms", "processor": 0, "replicas": [2]}
	     ]}
	  ]
	}`))
	if err != nil {
		b.Fatal(err)
	}
	cfg, _ := rtmw.ParseConfig("T_T_T")
	c, err := rtmw.StartLiveBinding(rtmw.ClusterOptions{Workload: w, Config: cfg, Seed: 23})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var failover, quiesce time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := make([]string, 0, 9)
		for _, task := range c.Tasks() {
			ids = append(ids, task.ID, task.ID, task.ID)
		}
		if _, err := c.SubmitBatch(ids); err != nil {
			b.Fatal(err)
		}
		if err := c.KillNode(1); err != nil {
			b.Fatal(err)
		}
		rep, err := c.Failover(1)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Lost != 0 || len(rep.Withdrawn) != 0 {
			b.Fatalf("failover lost jobs: %+v", rep)
		}
		failover += rep.Duration
		quiesce += rep.Quiesce
		if err := c.RecoverNode(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(failover.Nanoseconds())/float64(b.N), "failover-ns")
	b.ReportMetric(float64(quiesce.Nanoseconds())/float64(b.N), "quiesce-ns")
	if err := c.AuditAdmissionState(); err != nil {
		b.Fatal(err)
	}
	if _, lost := c.RedeliveryStats(); lost != 0 {
		b.Fatalf("redelivery lost %d jobs", lost)
	}
}
