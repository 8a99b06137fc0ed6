package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one traced interval. Spans of one request share Trace; Parent is
// the Span id of the span that caused this one (0 for a root). Instants are
// nanoseconds on the run's clock.
type span struct {
	Trace  string `json:"trace"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, in a slice sized before the run, and writes
// them out when the run has ended. The spans are taken by the benchmark
// around its own calls into each layer; spans inside the program under test
// are a later issue. Only the goroutine that runs the workload touches it:
// the job and control-call records are turned into spans once the run is
// over.
type tracer struct {
	spans []span
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, 0, capacity)} }

// add records one span and returns its id, for children to name as parent.
func (t *tracer) add(trace string, parent int, name string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, Span: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// addJobs turns the measured job records into spans: a root "job" from the
// due time to the last terminal event, with the Submit call, the wait for the
// decision and the execution as children.
func (t *tracer) addJobs(r *recorder, tasks []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for ti := range r.jobs {
		for k := range r.jobs[ti] {
			j := &r.jobs[ti][k]
			if j.phase != phaseMeasured || j.decided == 0 {
				continue
			}
			id := fmt.Sprintf("%s/%d", tasks[ti], k)
			root := t.add(id, 0, "job", j.due, max(j.decided, j.completed))
			if j.returned != 0 {
				t.add(id, root, "cluster.submit", j.submitted, j.returned)
				if j.decided > j.returned {
					t.add(id, root, "decision_wait", j.returned, j.decided)
				}
			}
			if j.completed > j.decided {
				t.add(id, root, "execute", j.decided, j.completed)
			}
		}
	}
}

// selfTimes returns, per span name, the summed duration and the summed self
// time: a span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() (total, self map[string]int64) {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total = make(map[string]int64)
	self = make(map[string]int64)
	for _, s := range t.spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(s, children[s.Span])
	}
	return total, self
}

// covered is the length of the union of the children's intervals, clipped to
// the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	pos := parent.Start
	for _, k := range kids {
		start, end := max(k.Start, pos), min(k.End, parent.End)
		if end > start {
			sum += end - start
			pos = end
		}
	}
	return sum
}

// write stores the spans as JSONL, and the counts beside them, under dir.
func (t *tracer) write(dir, workload string, counts map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.MarshalIndent(counts, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "counts-"+workload+".json"), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
