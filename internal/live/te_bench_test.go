package live

import (
	"sync"
	"testing"

	"repro/internal/ccm"
	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

// benchTE builds an activated effector with a cached per-task decision for
// task "p" (task "a" is aperiodic, so its submissions take the slow path
// through its state machine and the event plane).
func benchTE(tb testing.TB) *TaskEffector {
	tb.Helper()
	node, err := NewNode("te-bench", 0, "127.0.0.1:0", 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { node.Close() })
	te := NewTaskEffector()
	if err := te.Configure(teAttrs("0", "T")); err != nil {
		tb.Fatal(err)
	}
	if err := te.Activate(&ccm.Context{Node: "te-bench", ORB: node.ORB, Events: node.Channel}); err != nil {
		tb.Fatal(err)
	}
	if _, err := te.SubmitJob("p"); err != nil {
		tb.Fatal(err)
	}
	te.onAccept(eventchan.Event{Type: EvAccept, Payload: AppendAccept(nil, &Accept{
		Task: 0, Job: 0, Ok: true,
		Placement:       []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.05}},
		PerTaskDecision: true,
		Epoch:           0,
	})})
	if !cached(te, "p") {
		tb.Fatal("per-task decision was not cached")
	}
	return te
}

// BenchmarkTECachedSubmit measures the cached per-task Submit fast path:
// solo, and racing a goroutine that continuously injects first-admission
// (undecided) arrivals through the slow path. Both paths take the
// effector's lock once per submission.
func BenchmarkTECachedSubmit(b *testing.B) {
	cached := func(b *testing.B, te *TaskEffector) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := te.SubmitJob("p"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("solo", func(b *testing.B) {
		cached(b, benchTE(b))
	})
	b.Run("vs-first-admission", func(b *testing.B) {
		te := benchTE(b)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Slow path: the task's state machine and a TaskArrive
				// push. Unanswered requests expire after the longest deadline.
				_, _ = te.SubmitJob("a")
			}
		}()
		cached(b, te)
		close(stop)
		<-done
	})
}

// TestTEConcurrentCachedSubmit drives cached and first-admission submissions
// concurrently (run under -race) and checks the counters add up.
func TestTEConcurrentCachedSubmit(t *testing.T) {
	te := benchTE(t)
	base := te.StatsSnapshot()
	const workers = 4
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				adm, err := te.SubmitJob("p")
				if err != nil {
					t.Error(err)
					return
				}
				if adm.Outcome != core.AdmissionAccepted {
					t.Errorf("cached submit outcome = %v", adm.Outcome)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, _ = te.SubmitJob("a")
			}
		}()
	}
	wg.Wait()
	s := te.StatsSnapshot()
	if got, want := s.Arrived-base.Arrived, int64(2*workers*perWorker); got != want {
		t.Errorf("Arrived delta = %d, want %d", got, want)
	}
	if got, want := s.Released-base.Released, int64(workers*perWorker); got < want {
		t.Errorf("Released delta = %d, want at least %d", got, want)
	}
	te.mu.Lock()
	defer te.mu.Unlock()
	if n := te.byName["a"].nextJob; n != workers*perWorker {
		t.Errorf("task a numbered %d jobs, want %d", n, workers*perWorker)
	}
}

// cached reports whether the effector holds a cached decision for task.
func cached(te *TaskEffector, task string) bool {
	te.mu.Lock()
	defer te.mu.Unlock()
	tt := te.byName[task]
	if tt == nil {
		return false
	}
	_, ok := tt.eff.Cached()
	return ok
}
