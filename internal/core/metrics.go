package core

import (
	"sort"
	"time"

	"repro/internal/sched"
)

// KindMetrics aggregates per-task-kind job accounting. The JSON form, with
// durations as integer nanoseconds, is the scenario engine's canonical metrics
// document: field order and keys are part of the replay byte-identity pin.
type KindMetrics struct {
	// Arrived counts job arrivals at task effectors.
	Arrived int64 `json:"arrived"`
	// Released counts jobs released for execution (accepted).
	Released int64 `json:"released"`
	// Skipped counts jobs not released: rejected by the admission test or
	// belonging to a rejected per-task periodic task.
	Skipped int64 `json:"skipped"`
	// Completed counts jobs whose last subtask finished.
	Completed int64 `json:"completed"`
	// Missed counts completed jobs whose response time exceeded the
	// end-to-end deadline.
	Missed int64 `json:"missed"`
	// ArrivedUtil and ReleasedUtil accumulate per-job synthetic utilization
	// (Σ C/D over stages) over arrived and released jobs; their quotient is
	// the paper's accepted utilization ratio.
	ArrivedUtil  float64 `json:"arrived_util"`
	ReleasedUtil float64 `json:"released_util"`
	// TotalResponse and MaxResponse aggregate response times of completed
	// jobs.
	TotalResponse time.Duration `json:"total_response_ns"`
	MaxResponse   time.Duration `json:"max_response_ns"`
}

// Metrics is the experiment-facing accounting kept by a simulation run. The
// headline metric is the accepted utilization ratio: "the total utilization
// of jobs actually released divided by the total utilization of all jobs
// arriving" (Section 7.1).
type Metrics struct {
	// Total aggregates over all jobs; Periodic and Aperiodic split by kind.
	Total     KindMetrics
	Periodic  KindMetrics
	Aperiodic KindMetrics

	// sim is the run whose per-task records hold the task buckets. byName
	// maps each task name to the ref of the first incarnation to arrive,
	// whose bucket is the name's; it is built on the first call that needs
	// it and kept up from then on. alias maps every later incarnation to
	// that first one.
	sim    *SimSystem
	byName map[string]int32
	alias  map[int32]int32
}

// kind returns the per-kind bucket.
func (m *Metrics) kind(k sched.TaskKind) *KindMetrics {
	if k == sched.Periodic {
		return &m.Periodic
	}
	return &m.Aperiodic
}

// Task returns the accounting for one task (zero value if it never
// arrived). The returned copy is safe to retain.
func (m *Metrics) Task(id string) KindMetrics {
	if ref, ok := m.names()[id]; ok {
		return m.sim.state[ref].own
	}
	return KindMetrics{}
}

// TaskIDs lists tasks with recorded activity.
func (m *Metrics) TaskIDs() []string {
	names := m.names()
	out := make([]string, 0, len(names))
	for id := range names {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// names returns the name index, building it on first use. A binding that
// can give a name a second incarnation (a task re-registered after
// removal) builds it before that, so the second one accounts into the
// first's bucket. The first to arrive is the one of least ref: a removed
// incarnation's record is made before its removal or never.
func (m *Metrics) names() map[string]int32 {
	if m.byName == nil {
		m.byName = make(map[string]int32)
		for ref, st := range m.sim.state {
			if _, later := m.alias[int32(ref)]; st != nil && !later {
				m.byName[m.sim.tasks[ref].ID] = int32(ref)
			}
		}
	}
	return m.byName
}

// enter registers the first arrival of task ref: once the name index
// exists, a later incarnation of a name accounts into the first's bucket.
func (m *Metrics) enter(ref int32) {
	if m.byName == nil {
		return
	}
	id := m.sim.tasks[ref].ID
	first, ok := m.byName[id]
	if !ok {
		m.byName[id] = ref
		return
	}
	if m.alias == nil {
		m.alias = make(map[int32]int32)
	}
	m.alias[ref] = first
}

// of returns the buckets a job of task ref accounts into, the total, its
// kind's and its own (or its name's first incarnation's, alias), and the
// task's utilization.
func (m *Metrics) of(ref int32) ([3]*KindMetrics, float64) {
	own := ref
	if first, ok := m.alias[ref]; ok {
		own = first
	}
	st := m.sim.state[ref]
	return [3]*KindMetrics{&m.Total, m.kind(m.sim.tasks[ref].Kind), &m.sim.state[own].own}, st.util
}

// arrived records a job arrival of task ref.
func (m *Metrics) arrived(ref int32) {
	buckets, u := m.of(ref)
	for _, b := range buckets {
		b.Arrived++
		b.ArrivedUtil += u
	}
}

// released records an accepted, released job of task ref.
func (m *Metrics) released(ref int32) {
	buckets, u := m.of(ref)
	for _, b := range buckets {
		b.Released++
		b.ReleasedUtil += u
	}
}

// skipped records a job of task ref that was not released.
func (m *Metrics) skipped(ref int32) {
	buckets, _ := m.of(ref)
	for _, b := range buckets {
		b.Skipped++
	}
}

// completed records a finished job of task ref and its response time.
func (m *Metrics) completed(ref int32, response time.Duration) {
	buckets, _ := m.of(ref)
	missed := response > m.sim.tasks[ref].Deadline
	for _, b := range buckets {
		b.Completed++
		b.TotalResponse += response
		if response > b.MaxResponse {
			b.MaxResponse = response
		}
		if missed {
			b.Missed++
		}
	}
}

// AcceptedUtilizationRatio returns released/arrived utilization over all
// jobs, the paper's Figure 5/6 metric. It returns zero when nothing arrived.
func (m *Metrics) AcceptedUtilizationRatio() float64 {
	if m.Total.ArrivedUtil == 0 {
		return 0
	}
	return m.Total.ReleasedUtil / m.Total.ArrivedUtil
}

// MeanResponse returns the mean response time of completed jobs, or zero.
func (k *KindMetrics) MeanResponse() time.Duration {
	if k.Completed == 0 {
		return 0
	}
	return k.TotalResponse / time.Duration(k.Completed)
}

// MissRatio returns the fraction of completed jobs that missed their
// end-to-end deadline, or zero.
func (k *KindMetrics) MissRatio() float64 {
	if k.Completed == 0 {
		return 0
	}
	return float64(k.Missed) / float64(k.Completed)
}
