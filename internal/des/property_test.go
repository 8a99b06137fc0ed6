package des

import (
	"math/rand"
	"testing"
	"time"
)

// TestProcessorWorkConservation drives random job sets through the
// preemptive processor and checks the fundamental scheduling invariants:
// every job completes exactly once, total busy time equals total submitted
// execution time, and no job finishes before its arrival plus execution
// time.
func TestProcessorWorkConservation(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine()
		p := NewProcessor(eng, 0)

		type jobRec struct {
			arrival  time.Duration
			exec     time.Duration
			done     time.Duration
			finished bool
		}
		n := 5 + rng.Intn(40)
		jobs := make([]*jobRec, n)
		var totalExec time.Duration
		for i := 0; i < n; i++ {
			j := &jobRec{
				arrival: time.Duration(rng.Intn(1000)) * time.Millisecond,
				exec:    time.Duration(1+rng.Intn(50)) * time.Millisecond,
			}
			jobs[i] = j
			totalExec += j.exec
			prio := 1 + rng.Intn(5)
			eng.At(j.arrival, func() {
				p.SubmitEvent(prio, j.exec, completionRecorder{rec: func() {
					if j.finished {
						t.Error("job completed twice")
					}
					j.finished = true
					j.done = eng.Now()
				}}, Event{})
			})
		}
		eng.Run()

		for i, j := range jobs {
			if !j.finished {
				t.Fatalf("seed %d: job %d never completed", seed, i)
			}
			if j.done < j.arrival+j.exec {
				t.Errorf("seed %d: job %d finished at %v, before arrival %v + exec %v",
					seed, i, j.done, j.arrival, j.exec)
			}
		}
		if p.BusyTime != totalExec {
			t.Errorf("seed %d: busy time %v != total submitted execution %v", seed, p.BusyTime, totalExec)
		}
		if !p.Idle() {
			t.Errorf("seed %d: processor not idle after drain", seed)
		}
	}
}

// TestProcessorPriorityDominance checks that whenever a strictly
// higher-priority job is pending, lower-priority jobs submitted at the same
// instant never complete first.
func TestProcessorPriorityDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		eng := NewEngine()
		p := NewProcessor(eng, 0)
		var order []int
		// All jobs arrive at t=0 with distinct priorities and random
		// execution times: completion order must equal priority order.
		n := 2 + rng.Intn(6)
		eng.At(0, func() {
			perm := rng.Perm(n)
			for _, prio := range perm {
				prio := prio
				exec := time.Duration(1+rng.Intn(30)) * time.Millisecond
				p.SubmitEvent(prio, exec, completionRecorder{rec: func() { order = append(order, prio) }}, Event{})
			}
		})
		eng.Run()
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Fatalf("trial %d: completion order %v violates priority order", trial, order)
			}
		}
	}
}
