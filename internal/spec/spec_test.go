package spec

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
)

const sampleJSON = `{
  "name": "plant-monitor",
  "processors": 3,
  "tasks": [
    {
      "id": "sensor-scan",
      "kind": "periodic",
      "period": "500ms",
      "deadline": "500ms",
      "subtasks": [
        {"exec": "20ms", "processor": 0, "replicas": [1]},
        {"exec": "10ms", "processor": 2}
      ]
    },
    {
      "id": "hazard-alert",
      "kind": "aperiodic",
      "deadline": "250ms",
      "subtasks": [
        {"exec": "15ms", "processor": 1}
      ]
    }
  ]
}`

// duplicateIDJSON names two tasks "a" whose stages sit on different
// processors, so nothing but the ID check can reject it.
const duplicateIDJSON = `{"processors": 2, "tasks": [
  {"id": "a", "kind": "aperiodic", "deadline": "1s", "subtasks": [{"exec": "1ms", "processor": 0}]},
  {"id": "a", "kind": "aperiodic", "deadline": "2s", "subtasks": [{"exec": "1ms", "processor": 1}]}]}`

func TestParseSample(t *testing.T) {
	w, err := Parse([]byte(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "plant-monitor" || w.Processors != 3 || len(w.Tasks) != 2 {
		t.Fatalf("parsed workload = %+v", w)
	}
	tasks, err := w.SchedTasks()
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].Kind != sched.Periodic || tasks[0].Period != 500*time.Millisecond {
		t.Errorf("task 0 = %+v", tasks[0])
	}
	if tasks[1].Kind != sched.Aperiodic {
		t.Errorf("task 1 kind = %v", tasks[1].Kind)
	}
	// Aperiodic mean interarrival defaults to the deadline.
	if tasks[1].MeanInterarrival != 250*time.Millisecond {
		t.Errorf("mean interarrival = %v, want 250ms", tasks[1].MeanInterarrival)
	}
	// EDMS: shorter deadline gets higher priority (smaller number).
	if tasks[1].Priority >= tasks[0].Priority {
		t.Errorf("priorities: alert %d vs scan %d, want alert higher", tasks[1].Priority, tasks[0].Priority)
	}
	if got := tasks[0].Subtasks[0].Replicas; len(got) != 1 || got[0] != 1 {
		t.Errorf("replicas = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		json string
	}{
		{"bad json", `{`},
		{"zero processors", `{"processors": 0, "tasks": []}`},
		{"bad kind", `{"processors": 1, "tasks": [{"id": "x", "kind": "sometimes", "deadline": "1s",
			"subtasks": [{"exec": "1ms", "processor": 0}]}]}`},
		{"processor out of range", `{"processors": 1, "tasks": [{"id": "x", "kind": "periodic",
			"period": "1s", "deadline": "1s", "subtasks": [{"exec": "1ms", "processor": 3}]}]}`},
		{"replica out of range", `{"processors": 1, "tasks": [{"id": "x", "kind": "periodic",
			"period": "1s", "deadline": "1s", "subtasks": [{"exec": "1ms", "processor": 0, "replicas": [9]}]}]}`},
		{"bad duration", `{"processors": 1, "tasks": [{"id": "x", "kind": "periodic",
			"period": "xyz", "deadline": "1s", "subtasks": [{"exec": "1ms", "processor": 0}]}]}`},
		{"missing subtasks", `{"processors": 1, "tasks": [{"id": "x", "kind": "periodic",
			"period": "1s", "deadline": "1s", "subtasks": []}]}`},
		{"duplicate task ID", duplicateIDJSON},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse([]byte(tt.json)); err == nil {
				t.Error("Parse accepted invalid spec")
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	w, err := Parse([]byte(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := w.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(encoded), `"500ms"`) {
		t.Errorf("encoded durations not human readable:\n%s", encoded)
	}
	w2, err := Parse(encoded)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Name != w.Name || len(w2.Tasks) != len(w.Tasks) {
		t.Error("round trip lost data")
	}
}

func TestFromTasksRoundTrip(t *testing.T) {
	orig, err := Parse([]byte(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := orig.SchedTasks()
	if err != nil {
		t.Fatal(err)
	}
	w := FromTasks("copy", 3, tasks)
	tasks2, err := w.SchedTasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks2) != len(tasks) {
		t.Fatal("task count changed")
	}
	for i := range tasks {
		if tasks[i].ID != tasks2[i].ID || tasks[i].Deadline != tasks2[i].Deadline ||
			tasks[i].Kind != tasks2[i].Kind || len(tasks[i].Subtasks) != len(tasks2[i].Subtasks) {
			t.Errorf("task %d changed in round trip: %+v vs %+v", i, tasks[i], tasks2[i])
		}
	}
}

func TestDurationNumericJSON(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`1500000`)); err != nil {
		t.Fatal(err)
	}
	if time.Duration(d) != 1500*time.Microsecond {
		t.Errorf("numeric duration = %v", time.Duration(d))
	}
	if err := d.UnmarshalJSON([]byte(`true`)); err == nil {
		t.Error("bool accepted as duration")
	}
}

// FuzzParseWorkload holds the decoder in front of the EDMS order: no input
// panics it; Encode's output parses and encodes to itself; and an accepted
// workload has unique task IDs whose priorities are 1..n in the stable
// (Deadline, ID) order.
func FuzzParseWorkload(f *testing.F) {
	f.Add([]byte(sampleJSON))
	f.Add([]byte(`{"processors": 1, "tasks": [
  {"id": "long", "kind": "periodic", "period": 9223372036854775807, "deadline": 9223372036854775807,
   "subtasks": [{"exec": 1, "processor": 0}]},
  {"id": "short", "kind": "aperiodic", "deadline": 1, "subtasks": [{"exec": 1, "processor": 0}]}]}`))
	f.Add([]byte(duplicateIDJSON))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := w.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		w2, err := Parse(enc)
		if err != nil {
			t.Fatalf("Parse rejects Encode's output: %v\n%s", err, enc)
		}
		if enc2, err := w2.Encode(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("Encode is not a fixed point (err %v):\n%s\nthen\n%s", err, enc, enc2)
		}

		tasks, err := w.SchedTasks()
		if err != nil {
			t.Fatalf("SchedTasks rejects a parsed workload: %v", err)
		}
		ids := make(map[string]bool, len(tasks))
		for _, tk := range tasks {
			if ids[tk.ID] {
				t.Fatalf("accepted duplicate task ID %q", tk.ID)
			}
			ids[tk.ID] = true
		}
		order := slices.Clone(tasks)
		sort.SliceStable(order, func(i, j int) bool {
			if order[i].Deadline != order[j].Deadline {
				return order[i].Deadline < order[j].Deadline
			}
			return order[i].ID < order[j].ID
		})
		for i, tk := range order {
			if tk.Priority != i+1 {
				t.Fatalf("task %q (deadline %v) has priority %d, want %d", tk.ID, tk.Deadline, tk.Priority, i+1)
			}
		}
	})
}
