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

	// accs holds every accumulator in creation order, in chunks of accChunk
	// cut from one allocation each (only the last chunk has room left), so a
	// handle stays put.
	accs [][]MetricAcc
	// byName maps each task name to the first accumulator made for it, whose
	// own bucket is the name's. It is built on the first call that needs it
	// and kept up from then on.
	byName map[string]*MetricAcc
}

// accChunk is how many accumulators one allocation holds.
const accChunk = 64

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
	if a, ok := m.names()[id]; ok {
		return a.task
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
// can give a name a second accumulator (a task re-registered after removal)
// builds it before that, so the second one finds the first.
func (m *Metrics) names() map[string]*MetricAcc {
	if m.byName == nil {
		m.byName = make(map[string]*MetricAcc)
		for _, chunk := range m.accs {
			for i := range chunk {
				if a := &chunk[i]; m.byName[a.name] == nil {
					m.byName[a.name] = a
				}
			}
		}
	}
	return m.byName
}

// MetricAcc is a cached per-task accumulator: the task's own bucket, pointers
// to the three buckets its jobs account into (total, per kind, per task) and
// the task's per-job constants, in one object, so the simulation's hot path
// records a job without a map lookup and a task's first job allocates once.
type MetricAcc struct {
	task     KindMetrics
	buckets  [3]*KindMetrics
	util     float64
	deadline time.Duration
	name     string
}

// Acc returns a new accumulator handle for the task, cut from the current
// chunk. A later handle for the same ID (a task re-registered after removal)
// carries the new task's constants and accounts into the first handle's
// bucket, provided the name index exists by then (see names). The handle
// stays valid for the lifetime of the Metrics value.
func (m *Metrics) Acc(t *sched.Task) *MetricAcc {
	last := len(m.accs) - 1
	if last < 0 || len(m.accs[last]) == cap(m.accs[last]) {
		m.accs = append(m.accs, make([]MetricAcc, 0, accChunk))
		last++
	}
	m.accs[last] = append(m.accs[last], MetricAcc{util: t.TotalUtil(), deadline: t.Deadline, name: t.ID})
	a := &m.accs[last][len(m.accs[last])-1]
	own := &a.task
	if m.byName != nil {
		if first, ok := m.byName[t.ID]; ok {
			own = &first.task
		} else {
			m.byName[t.ID] = a
		}
	}
	a.buckets = [3]*KindMetrics{&m.Total, m.kind(t.Kind), own}
	return a
}

// Arrived records a job arrival.
func (a *MetricAcc) Arrived() {
	for _, b := range a.buckets {
		b.Arrived++
		b.ArrivedUtil += a.util
	}
}

// Released records an accepted, released job.
func (a *MetricAcc) Released() {
	for _, b := range a.buckets {
		b.Released++
		b.ReleasedUtil += a.util
	}
}

// Skipped records a job that was not released.
func (a *MetricAcc) Skipped() {
	for _, b := range a.buckets {
		b.Skipped++
	}
}

// Completed records a finished job and its response time.
func (a *MetricAcc) Completed(response time.Duration) {
	missed := response > a.deadline
	for _, b := range a.buckets {
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
