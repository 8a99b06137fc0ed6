package sched

import (
	"fmt"
	"testing"
	"time"
)

// populatedLedger fills a 5-processor ledger with n in-flight two-stage
// jobs spread over the processors, the shape of a heavily loaded admission
// controller. Each processor ends at synthetic utilization 0.3, so every
// job's AUB condition holds (2·f(0.3) ≈ 0.73) and admission tests exercise
// the real evaluation path rather than a short-circuit rejection.
func populatedLedger(b *testing.B, n int) *Ledger {
	b.Helper()
	l := NewLedger(5)
	for i := 0; i < n; i++ {
		ref := JobKey{Task: 0, Job: int64(i)}
		pl := []PlacedStage{
			{Stage: 0, Proc: i % 5, Util: 0.75 / float64(n)},
			{Stage: 1, Proc: (i + 2) % 5, Util: 0.75 / float64(n)},
		}
		if err := l.AddJob(ref, Aperiodic, pl, false, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	return l
}

// BenchmarkAdmissibleIndexedVsReference compares the indexed admission test
// against the paper-literal full scan on identical ledgers. The indexed
// cost depends on the number of distinct processor-visit signatures (here a
// handful), the reference on the number of in-flight jobs, so the gap grows
// linearly with the job count.
func BenchmarkAdmissibleIndexedVsReference(b *testing.B) {
	cand := []PlacedStage{{Stage: 0, Proc: 0, Util: 0.01}}
	for _, n := range []int{100, 1000, 10000, 100000} {
		l := populatedLedger(b, n)
		b.Run(fmt.Sprintf("indexed/jobs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Admissible(cand)
			}
		})
		b.Run(fmt.Sprintf("reference/jobs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.referenceAdmissible(cand)
			}
		})
	}
}

// BenchmarkCompletedOn measures the per-processor index behind the idle
// resetters' report construction: half the jobs' first stages are completed
// before measurement.
func BenchmarkCompletedOn(b *testing.B) {
	for _, n := range []int{100, 10000} {
		l := populatedLedger(b, n)
		for i := 0; i < n; i += 2 {
			l.MarkComplete(JobKey{Task: 0, Job: int64(i)}, 0)
		}
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.CompletedOn(i%5, true)
			}
		})
	}
}

// BenchmarkLedgerChurn measures the full mutation cycle (admit, complete,
// reset, expire) at a sustained in-flight population, the admission
// controller's steady-state write load.
func BenchmarkLedgerChurn(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		l := populatedLedger(b, n)
		b.Run(fmt.Sprintf("inflight=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ref := JobKey{Task: 1, Job: int64(i)}
				pl := []PlacedStage{{Stage: 0, Proc: i % 5, Util: 0.001}}
				if !l.Admissible(pl) {
					b.Fatal("churn job rejected")
				}
				if err := l.AddJob(ref, Aperiodic, pl, false, time.Hour); err != nil {
					b.Fatal(err)
				}
				l.MarkComplete(ref, 0)
				l.ResetEntry(Entry[JobKey]{Ref: ref, Stage: 0, Proc: i % 5})
				l.ExpireJob(ref)
			}
		})
	}
}
