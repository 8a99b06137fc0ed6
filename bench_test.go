package rtmw_test

import (
	"fmt"
	"testing"
	"time"

	rtmw "repro"
	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/experiments"
	"repro/internal/orb"
	"repro/internal/sched"
)

// The benchmarks here are the ones no row of the repo benchmark (go run
// ./benchmark) and no rtmw-bench series in CI already measures. The
// allocation counts that matter are tier-1 assertions next to their code.

// --- Figure 6: accepted utilization ratio, imbalanced workloads ---

func BenchmarkFigure6(b *testing.B) {
	for _, combo := range core.AllCombinations() {
		combo := combo
		b.Run(combo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := experiments.RunFigure6(experiments.FigureOptions{
					Sets:    10,
					Horizon: 5 * time.Minute,
					Combos:  []core.Config{combo},
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

// --- Figure 7/8 operation 4 at scale ---

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
// cached sum leaves room for, so all 512 are summed. Every row reads
// 0 allocs/op; TestAdmissibleManyGroups holds the same scans to 0 in tier-1.
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
