// Journal encoding and the canonical golden-metrics rendering are a
// deterministic-replay surface: the same run must serialize byte-identically.
//
//rtmw:deterministic file
package scenario

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sync"

	"repro/internal/core"
	wspec "repro/internal/spec"
)

// JournalFormat and JournalVersion identify the journal file format: JSON
// lines, one object per line — a header line, then the applied ops and
// observed watch events in recording order.
const (
	JournalFormat  = "rtmw-scenario-journal"
	JournalVersion = 1
)

// JournalHeader describes the recorded run. Workload is the full initial
// task set in the scenario's unscaled virtual timebase (live runs scale
// tasks at apply time, not here), so a journal is self-contained: replay
// needs no access to the original spec.
type JournalHeader struct {
	Format   string         `json:"format"`
	Version  int            `json:"version"`
	Scenario string         `json:"scenario"`
	Binding  string         `json:"binding"`
	Config   string         `json:"config"`
	Horizon  wspec.Duration `json:"horizon"`
	Seed     int64          `json:"seed"`
	// TimeScale is the live run's compression (zero for sim recordings).
	TimeScale float64         `json:"timeScale,omitempty"`
	Workload  *wspec.Workload `json:"workload"`
}

// JournalEvent is one observed watch event. Events are observational —
// replay reconstructs the run from the ops alone — but they make the
// journal a complete incident record.
type JournalEvent struct {
	Seq   int64          `json:"seq"`
	Kind  string         `json:"kind"`
	Task  string         `json:"task,omitempty"`
	Job   int64          `json:"job"`
	At    wspec.Duration `json:"at"`
	Epoch int64          `json:"epoch"`
}

// journalLine is the on-disk line envelope.
type journalLine struct {
	Type   string         `json:"type"`
	Header *JournalHeader `json:"header,omitempty"`
	Op     *Op            `json:"op,omitempty"`
	Event  *JournalEvent  `json:"event,omitempty"`
}

// Journal is a decoded recording.
type Journal struct {
	Header JournalHeader
	Ops    []Op
	Events []JournalEvent
}

// Recorder captures a run to a journal stream. The executor writes ops and
// the watch consumer writes events concurrently, so writes are serialized
// by a mutex; encoding errors stick and surface through Err.
type Recorder struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewRecorder starts a recording by writing the header line.
func NewRecorder(w io.Writer, h JournalHeader) *Recorder {
	h.Format = JournalFormat
	h.Version = JournalVersion
	r := &Recorder{enc: json.NewEncoder(w)}
	r.write(journalLine{Type: "header", Header: &h})
	return r
}

func (r *Recorder) write(line journalLine) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	r.err = r.enc.Encode(line)
}

// Op records one applied (post-filter) timeline operation.
func (r *Recorder) Op(op Op) { r.write(journalLine{Type: "op", Op: &op}) }

// Event records one observed watch event.
func (r *Recorder) Event(ev core.WatchEvent) {
	r.write(journalLine{Type: "event", Event: &JournalEvent{
		Seq: ev.Seq, Kind: ev.Kind.String(), Task: ev.Task, Job: ev.Job,
		At: wspec.Duration(ev.At), Epoch: ev.Epoch,
	}})
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// DecodeJournal parses a journal from bytes.
func DecodeJournal(data []byte) (*Journal, error) {
	return ReadJournal(bytes.NewReader(data))
}

// ReadJournal parses a journal stream: the header line, then ops and events
// in recording order.
func ReadJournal(r io.Reader) (*Journal, error) {
	j := &Journal{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		n++
		var line journalLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("scenario: journal line %d: %w", n, err)
		}
		switch {
		case line.Type == "header" && line.Header != nil:
			j.Header = *line.Header
		case line.Type == "op" && line.Op != nil:
			j.Ops = append(j.Ops, *line.Op)
		case line.Type == "event" && line.Event != nil:
			j.Events = append(j.Events, *line.Event)
		default:
			return nil, fmt.Errorf("scenario: journal line %d: unknown type %q or empty body", n, line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: read journal: %w", err)
	}
	if j.Header.Format != JournalFormat {
		return nil, fmt.Errorf("scenario: not a scenario journal (format %q)", j.Header.Format)
	}
	if j.Header.Version != JournalVersion {
		return nil, fmt.Errorf("scenario: unsupported journal version %d", j.Header.Version)
	}
	if j.Header.Workload == nil {
		return nil, fmt.Errorf("scenario: journal has no workload")
	}
	emptyListsAsNil(reflect.ValueOf(j))
	return j, nil
}

// emptyListsAsNil sets every empty list reachable from v to nil. The
// encoders omit an empty list, so a decoded journal or spec must read `[]`
// as it reads the omitted field: one value however the input spells it.
func emptyListsAsNil(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			emptyListsAsNil(v.Elem())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			emptyListsAsNil(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
		}
		for i := range v.Len() {
			emptyListsAsNil(v.Index(i))
		}
	}
}

// ReplayResult is a deterministic re-execution's outcome: the simulation
// run's Result, without a verdict (a journal carries no invariant block).
// Because the simulation is a deterministic function of (workload, config,
// seed, op timeline), replays of the same journal yield byte-identical
// MetricsJSON — the property the offline incident-reproduction path rests on.
type ReplayResult = Result

// Replay re-executes a journal's op timeline in the simulation binding:
// the header's workload, configuration and seed rebuild the sim in
// open-loop mode, and the recorded ops go through the same apply that
// performed them, at their virtual times. A journal recorded from a sim run
// reproduces that run exactly; one recorded from a live run reproduces the
// live arrival timeline under the simulator's deterministic execution model.
func Replay(j *Journal) (*ReplayResult, error) {
	h := j.Header
	tasks, err := h.Workload.SchedTasks()
	if err != nil {
		return nil, fmt.Errorf("scenario: replay: %w", err)
	}
	res := &Result{Scenario: h.Scenario, Binding: BindingSim, Config: h.Config, Horizon: h.Horizon, Seed: h.Seed}
	if err := runSim(res, tasks, h.Workload.Processors, j.Ops, nil, nil); err != nil {
		return nil, fmt.Errorf("scenario: replay: %w", err)
	}
	return res, nil
}

// CanonicalMetricsJSON renders a metrics value as a canonical document:
// fixed field order, per-task entries sorted by ID, indented. Two identical
// runs produce byte-identical documents, so replay determinism reduces to
// bytes.Equal.
func CanonicalMetricsJSON(scenario string, m *core.Metrics) ([]byte, error) {
	type taskEntry struct {
		ID string `json:"id"`
		core.KindMetrics
	}
	doc := struct {
		Scenario  string           `json:"scenario"`
		Total     core.KindMetrics `json:"total"`
		Periodic  core.KindMetrics `json:"periodic"`
		Aperiodic core.KindMetrics `json:"aperiodic"`
		Tasks     []taskEntry      `json:"tasks"`
	}{Scenario: scenario, Total: m.Total, Periodic: m.Periodic, Aperiodic: m.Aperiodic}
	for _, id := range m.TaskIDs() {
		doc.Tasks = append(doc.Tasks, taskEntry{id, m.Task(id)})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode metrics: %w", err)
	}
	return out, nil
}

// jsonUnmarshalStrict decodes JSON rejecting unknown fields and trailing
// data, so spec typos fail loudly instead of silently validating a
// different scenario.
func jsonUnmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("trailing data after spec document")
	}
	return nil
}

// RecordHeader builds the journal header for a spec about to run on a
// binding. The workload snapshot is the spec's initial task set, unscaled.
func RecordHeader(s *Spec, bindingName string, timeScale float64) (JournalHeader, error) {
	c, err := s.check()
	if err != nil {
		return JournalHeader{}, err
	}
	h := JournalHeader{
		Scenario: s.Name, Binding: bindingName, Config: s.Config,
		Horizon: s.Horizon, Seed: s.Seed,
		Workload: wspec.FromTasks(s.Name, c.procs, c.tasks),
	}
	if bindingName == BindingLive {
		h.TimeScale = s.timeScale(timeScale)
	}
	return h, nil
}
