// Package sched implements the real-time scheduling theory underlying the
// middleware: the end-to-end task model, aperiodic utilization bound (AUB)
// schedulability analysis with synthetic-utilization accounting and the idle
// resetting rule, and End-to-end Deadline Monotonic Scheduling (EDMS)
// priority assignment.
//
// The model follows Zhang, Gill, Lu (WUCSE-2008-5): a task T_i is a chain of
// subtasks T_i,j placed on different processors; the release of subtask j is
// triggered by the completion of subtask j-1; the task is subject to an
// end-to-end deadline. Periodic tasks have a fixed interarrival time (their
// period); aperiodic tasks arrive at arbitrary instants and every arrival is
// treated as an independent single-release task.
//
// All virtual timestamps in this package are time.Duration offsets from the
// start of an experiment; real-time bindings convert wall-clock instants to
// the same representation.
//
// # Concurrency
//
// Every exported Ledger method is one critical section under the ledger's
// mutex, so a ledger is safe for any number of goroutines, and the paper's
// single centralized admission controller decides one candidate at a time
// on both bindings.
package sched

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"
)

// TaskKind distinguishes periodic from aperiodic tasks.
type TaskKind int

// Task kinds. Enums start at one so the zero value is invalid and cannot be
// mistaken for a real kind.
const (
	Periodic TaskKind = iota + 1
	Aperiodic
)

// String returns the lowercase name of the kind.
func (k TaskKind) String() string {
	switch k {
	case Periodic:
		return "periodic"
	case Aperiodic:
		return "aperiodic"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// Subtask is one stage of an end-to-end task: an execution demand bound to a
// home processor, optionally replicated on other processors for load
// balancing.
type Subtask struct {
	// Index is the zero-based position of the stage within its task chain.
	Index int
	// Exec is the worst-case execution time of every subjob of this stage.
	Exec time.Duration
	// Processor is the home processor the stage was originally assigned to.
	Processor int
	// Replicas lists the processors hosting duplicates of the stage's
	// component, excluding the home processor. The stage may be re-allocated
	// only to one of these processors.
	Replicas []int
}

// Candidates returns the set of processors the stage may execute on: the
// home processor followed by all replicas. The returned slice is freshly
// allocated and safe for the caller to modify.
func (s Subtask) Candidates() []int {
	out := make([]int, 0, 1+len(s.Replicas))
	out = append(out, s.Processor)
	out = append(out, s.Replicas...)
	return out
}

// Task is an end-to-end task: a chain of subtasks with an end-to-end
// deadline. The execution time of every subtask, the end-to-end deadline,
// and (for periodic tasks) the period are known a priori, per the paper's
// task model.
type Task struct {
	// ID uniquely names the task within a workload.
	ID string
	// Kind is Periodic or Aperiodic.
	Kind TaskKind
	// Period is the interarrival time of consecutive jobs of a periodic
	// task. It is zero for aperiodic tasks.
	Period time.Duration
	// Deadline is the end-to-end deadline (maximum allowable response time)
	// of every job, relative to the job's arrival.
	Deadline time.Duration
	// Phase is the arrival offset of the first job of a periodic task, or
	// the arrival time of the single job of a fully specified aperiodic
	// arrival; workload generators use it to stagger releases.
	Phase time.Duration
	// MeanInterarrival is the mean of the exponential interarrival
	// distribution of an aperiodic task (Poisson arrivals). Zero for
	// periodic tasks.
	MeanInterarrival time.Duration
	// Subtasks is the stage chain, ordered by Index.
	Subtasks []Subtask
	// Priority is the EDMS priority assigned to every subjob of the task.
	// Smaller values are higher priority. AssignEDMSPriorities fills it in.
	Priority int
}

// StageUtil returns the synthetic utilization contribution of stage i:
// C_i / D (execution time over end-to-end deadline).
func (t *Task) StageUtil(i int) float64 {
	if t.Deadline <= 0 {
		return 0
	}
	return float64(t.Subtasks[i].Exec) / float64(t.Deadline)
}

// TotalUtil returns the sum of the task's per-stage synthetic utilization
// contributions. It is the per-job quantity aggregated by the accepted
// utilization ratio metric.
func (t *Task) TotalUtil() float64 {
	var u float64
	for i := range t.Subtasks {
		u += t.StageUtil(i)
	}
	return u
}

// Validate checks the structural invariants of the task definition.
func (t *Task) Validate() error {
	switch {
	case t.ID == "":
		return errors.New("sched: task has empty ID")
	case t.Kind != Periodic && t.Kind != Aperiodic:
		return fmt.Errorf("sched: task %s: invalid kind %d", t.ID, int(t.Kind))
	case t.Deadline <= 0:
		return fmt.Errorf("sched: task %s: non-positive deadline %v", t.ID, t.Deadline)
	case t.Kind == Periodic && t.Period <= 0:
		return fmt.Errorf("sched: periodic task %s: non-positive period %v", t.ID, t.Period)
	case t.Kind == Aperiodic && t.Period != 0:
		return fmt.Errorf("sched: aperiodic task %s: has period %v", t.ID, t.Period)
	case len(t.Subtasks) == 0:
		return fmt.Errorf("sched: task %s: no subtasks", t.ID)
	}
	for i, st := range t.Subtasks {
		if st.Index != i {
			return fmt.Errorf("sched: task %s: subtask %d has index %d", t.ID, i, st.Index)
		}
		if st.Exec <= 0 {
			return fmt.Errorf("sched: task %s: subtask %d has non-positive execution time %v", t.ID, i, st.Exec)
		}
		if st.Processor < 0 {
			return fmt.Errorf("sched: task %s: subtask %d has negative processor %d", t.ID, i, st.Processor)
		}
		for _, r := range st.Replicas {
			if r == st.Processor {
				return fmt.Errorf("sched: task %s: subtask %d replica duplicates home processor %d", t.ID, i, r)
			}
			if r < 0 {
				return fmt.Errorf("sched: task %s: subtask %d has negative replica processor %d", t.ID, i, r)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the task. Workload code hands tasks across
// package boundaries; cloning keeps the slices from aliasing (copy slices at
// boundaries).
func (t *Task) Clone() *Task {
	c := *t
	c.Subtasks = make([]Subtask, len(t.Subtasks))
	for i, st := range t.Subtasks {
		st.Replicas = append([]int(nil), st.Replicas...)
		c.Subtasks[i] = st
	}
	return &c
}

// AssignEDMSPriorities writes EDMSRanks's order into each task's Priority.
func AssignEDMSPriorities(tasks []*Task) {
	for i, r := range EDMSRanks(tasks) {
		tasks[i].Priority = int(r)
	}
}

// EDMSRanks returns the End-to-end Deadline Monotonic Scheduling priority of
// each task, by position, and writes no task: a subtask has higher priority
// (smaller value) if it belongs to a task with a shorter end-to-end
// deadline. Ties are broken by task ID and then by position in tasks, so the
// order is total and deterministic: the one a stable sort on (Deadline, ID)
// gives. Priorities start at one.
//
// The order costs linear time in the deadlines. The (deadline, index) keys
// start in input order and take one stable LSD radix pass per byte of the
// deadline span (max − min): none when every deadline is equal, at most four
// when the span is under 2^32 ns (≈ 4.29 s). Only inside a run of equal
// deadlines are keys compared, by ID, with a stable sort, so equal IDs keep
// input order.
func EDMSRanks(tasks []*Task) []int32 {
	if len(tasks) == 0 {
		return nil
	}
	type key struct {
		deadline time.Duration
		idx      int
	}
	order := make([]key, len(tasks))
	lo, hi := tasks[0].Deadline, tasks[0].Deadline
	for i, t := range tasks {
		order[i] = key{t.Deadline, i}
		lo, hi = min(lo, t.Deadline), max(hi, t.Deadline)
	}
	// Offsets from lo as unsigned: the span of any two int64s fits in uint64.
	span := uint64(hi) - uint64(lo)
	var tmp []key
	if span > 0 {
		tmp = make([]key, len(tasks))
	}
	for shift := 0; shift < 64 && span>>shift != 0; shift += 8 {
		var start [256]int
		for _, k := range order {
			start[byte((uint64(k.deadline)-uint64(lo))>>shift)]++
		}
		sum := 0
		for b, c := range start {
			start[b] = sum
			sum += c
		}
		for _, k := range order {
			b := byte((uint64(k.deadline) - uint64(lo)) >> shift)
			tmp[start[b]] = k
			start[b]++
		}
		order, tmp = tmp, order
	}
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && order[j].deadline == order[i].deadline {
			j++
		}
		if j-i > 1 {
			slices.SortStableFunc(order[i:j], func(a, b key) int {
				return strings.Compare(tasks[a.idx].ID, tasks[b.idx].ID)
			})
		}
		i = j
	}
	ranks := make([]int32, len(tasks))
	for i, k := range order {
		ranks[k.idx] = int32(i + 1)
	}
	return ranks
}

// JobRef identifies one release (job) of a task. Aperiodic arrivals are
// independent single-release tasks, so their Job numbers also increase per
// arrival.
type JobRef struct {
	// Task is the task ID.
	Task string
	// Job is the release sequence number, starting at zero.
	Job int64
}

// String formats the reference as "task#job".
func (r JobRef) String() string { return fmt.Sprintf("%s#%d", r.Task, r.Job) }
