package sched

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// TestEDMSPermutationInvariant checks with testing/quick that EDMS priority
// assignment depends only on the task set, not on input order.
func TestEDMSPermutationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		mk := func() []*Task {
			tasks := make([]*Task, n)
			for i := range tasks {
				tasks[i] = &Task{
					ID:       string(rune('a' + i)),
					Kind:     Aperiodic,
					Deadline: time.Duration(1+rng.Intn(5)) * time.Second,
					Subtasks: []Subtask{{Exec: time.Millisecond}},
				}
			}
			return tasks
		}
		base := mk()
		prio := make(map[string]int, n)
		AssignEDMSPriorities(base)
		for _, tk := range base {
			prio[tk.ID] = tk.Priority
		}
		// Shuffle copies of the same tasks (same IDs and deadlines).
		shuffled := make([]*Task, n)
		for i, tk := range base {
			c := tk.Clone()
			c.Priority = 0
			shuffled[i] = c
		}
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		AssignEDMSPriorities(shuffled)
		for _, tk := range shuffled {
			if prio[tk.ID] != tk.Priority {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEDMSPrioritiesAreDense checks that priorities are exactly 1..n.
func TestEDMSPrioritiesAreDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		tasks := make([]*Task, n)
		for i := range tasks {
			tasks[i] = &Task{
				ID:       string(rune('A' + i)),
				Kind:     Aperiodic,
				Deadline: time.Duration(1+rng.Intn(3)) * time.Second,
				Subtasks: []Subtask{{Exec: time.Millisecond}},
			}
		}
		AssignEDMSPriorities(tasks)
		seen := make(map[int]bool, n)
		for _, tk := range tasks {
			seen[tk.Priority] = true
		}
		for p := 1; p <= n; p++ {
			if !seen[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAUBTermBounds property-checks that the AUB term stays within its
// analytical envelope, in ledger units: u ≤ f(u) below 1 (pessimism), and
// termCap from 1 on, where f is infinite.
func TestAUBTermBounds(t *testing.T) {
	f := func(raw uint64) bool {
		n := int64(raw % (2 * unitsPerOne))
		v := termUnits(n)
		if n >= unitsPerOne {
			return v == termCap
		}
		return v >= n && v <= termCap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLedgerAddExpireInverse property-checks that expiring a job undoes its
// admission bit for bit.
func TestLedgerAddExpireInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger(4)
		// Background load.
		for i := 0; i < rng.Intn(10); i++ {
			pl := []PlacedStage{{Stage: 0, Proc: rng.Intn(4), Util: rng.Float64() * 0.2}}
			if err := l.AddJob(JobKey{Task: 0, Job: int64(i)}, Periodic, pl, false, time.Hour); err != nil {
				return false
			}
		}
		before := l.Utils()
		ref := JobKey{Task: 1, Job: 0}
		stages := 1 + rng.Intn(3)
		pl := make([]PlacedStage, stages)
		for s := range pl {
			pl[s] = PlacedStage{Stage: s, Proc: rng.Intn(4), Util: rng.Float64() * 0.3}
		}
		if err := l.AddJob(ref, Aperiodic, pl, false, time.Hour); err != nil {
			return false
		}
		l.ExpireJob(ref)
		return slices.Equal(l.Utils(), before) && l.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
