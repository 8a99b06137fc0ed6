// Package spec defines the workload specification file format the front-end
// configuration engine consumes (Section 6: "The application developer first
// provides a workload specification file which describes each end-to-end
// task and where its subtasks execute"), and its conversion to and from the
// scheduling model.
//
// The format is JSON with human-readable durations ("250ms", "1.5s").
package spec

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/sched"
)

// Duration wraps time.Duration with "250ms"-style JSON encoding.
type Duration time.Duration

// MarshalJSON encodes as a duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("spec: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err == nil {
		*d = Duration(n)
		return nil
	}
	return fmt.Errorf("spec: duration must be a string or integer: %s", b)
}

// SubtaskSpec describes one stage of an end-to-end task.
type SubtaskSpec struct {
	// Exec is the stage's worst-case execution time.
	Exec Duration `json:"exec"`
	// Processor is the home processor index.
	Processor int `json:"processor"`
	// Replicas lists processors hosting duplicates of the stage's component.
	Replicas []int `json:"replicas,omitempty"`
}

// TaskSpec describes one end-to-end task.
type TaskSpec struct {
	// ID names the task.
	ID string `json:"id"`
	// Kind is "periodic" or "aperiodic".
	Kind string `json:"kind"`
	// Period is required for periodic tasks.
	Period Duration `json:"period,omitempty"`
	// Deadline is the end-to-end deadline.
	Deadline Duration `json:"deadline"`
	// Phase optionally delays the first release.
	Phase Duration `json:"phase,omitempty"`
	// MeanInterarrival is the mean of the Poisson interarrival distribution
	// for aperiodic tasks; it defaults to the deadline.
	MeanInterarrival Duration `json:"meanInterarrival,omitempty"`
	// Subtasks is the stage chain.
	Subtasks []SubtaskSpec `json:"subtasks"`
}

// Workload is the top-level specification file.
type Workload struct {
	// Name labels the workload in generated deployment plans.
	Name string `json:"name"`
	// Processors is the number of application processors.
	Processors int `json:"processors"`
	// Tasks lists every end-to-end task.
	Tasks []TaskSpec `json:"tasks"`
}

// Parse decodes and validates a workload specification.
func Parse(data []byte) (*Workload, error) {
	var w Workload
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("spec: parse: %w", err)
	}
	if _, err := w.SchedTasks(); err != nil {
		return nil, err
	}
	return &w, nil
}

// Encode renders the workload as indented JSON.
func (w *Workload) Encode() ([]byte, error) {
	return json.MarshalIndent(w, "", "  ")
}

// SchedTasks converts the specification to validated scheduling-model tasks
// with unique IDs and EDMS priorities assigned.
func (w *Workload) SchedTasks() ([]*sched.Task, error) {
	if w.Processors <= 0 {
		return nil, fmt.Errorf("spec: workload needs a positive processor count, got %d", w.Processors)
	}
	out := make([]*sched.Task, 0, len(w.Tasks))
	ids := make(map[string]struct{}, len(w.Tasks))
	for _, ts := range w.Tasks {
		t := &sched.Task{
			ID:               ts.ID,
			Period:           time.Duration(ts.Period),
			Deadline:         time.Duration(ts.Deadline),
			Phase:            time.Duration(ts.Phase),
			MeanInterarrival: time.Duration(ts.MeanInterarrival),
		}
		switch ts.Kind {
		case "periodic":
			t.Kind = sched.Periodic
		case "aperiodic":
			t.Kind = sched.Aperiodic
			if t.MeanInterarrival == 0 {
				t.MeanInterarrival = t.Deadline
			}
		default:
			return nil, fmt.Errorf("spec: task %s: kind must be periodic or aperiodic, got %q", ts.ID, ts.Kind)
		}
		for i, st := range ts.Subtasks {
			if st.Processor >= w.Processors {
				return nil, fmt.Errorf("spec: task %s stage %d: processor %d out of range (workload has %d)",
					ts.ID, i, st.Processor, w.Processors)
			}
			for _, r := range st.Replicas {
				if r >= w.Processors {
					return nil, fmt.Errorf("spec: task %s stage %d: replica %d out of range (workload has %d)",
						ts.ID, i, r, w.Processors)
				}
			}
			t.Subtasks = append(t.Subtasks, sched.Subtask{
				Index:     i,
				Exec:      time.Duration(st.Exec),
				Processor: st.Processor,
				Replicas:  append([]int(nil), st.Replicas...),
			})
		}
		if err := t.Validate(); err != nil {
			return nil, err
		}
		// Submissions and the deployment's refs table name a task by its ID,
		// so two tasks sharing one could not be told apart; the simulation
		// binding rejects the same set.
		ids[t.ID] = struct{}{}
		if len(ids) == len(out) {
			return nil, fmt.Errorf("spec: duplicate task ID %q", t.ID)
		}
		out = append(out, t)
	}
	sched.AssignEDMSPriorities(out)
	return out, nil
}

// FromTasks builds a specification from scheduling-model tasks (used to
// persist generated workloads).
func FromTasks(name string, processors int, tasks []*sched.Task) *Workload {
	w := &Workload{Name: name, Processors: processors}
	for _, t := range tasks {
		ts := TaskSpec{
			ID:       t.ID,
			Deadline: Duration(t.Deadline),
			Phase:    Duration(t.Phase),
		}
		switch t.Kind {
		case sched.Periodic:
			ts.Kind = "periodic"
			ts.Period = Duration(t.Period)
		case sched.Aperiodic:
			ts.Kind = "aperiodic"
			ts.MeanInterarrival = Duration(t.MeanInterarrival)
		}
		for _, st := range t.Subtasks {
			ts.Subtasks = append(ts.Subtasks, SubtaskSpec{
				Exec:      Duration(st.Exec),
				Processor: st.Processor,
				Replicas:  append([]int(nil), st.Replicas...),
			})
		}
		w.Tasks = append(w.Tasks, ts)
	}
	return w
}
