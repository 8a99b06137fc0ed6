package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func validTask() *Task {
	return &Task{
		ID:       "t1",
		Kind:     Periodic,
		Period:   500 * time.Millisecond,
		Deadline: 500 * time.Millisecond,
		Subtasks: []Subtask{
			{Index: 0, Exec: 50 * time.Millisecond, Processor: 0, Replicas: []int{2}},
			{Index: 1, Exec: 25 * time.Millisecond, Processor: 1},
		},
	}
}

func TestTaskValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Task)
		wantErr bool
	}{
		{name: "valid", mutate: func(*Task) {}, wantErr: false},
		{name: "empty id", mutate: func(tk *Task) { tk.ID = "" }, wantErr: true},
		{name: "zero kind", mutate: func(tk *Task) { tk.Kind = 0 }, wantErr: true},
		{name: "bad kind", mutate: func(tk *Task) { tk.Kind = 9 }, wantErr: true},
		{name: "zero deadline", mutate: func(tk *Task) { tk.Deadline = 0 }, wantErr: true},
		{name: "periodic without period", mutate: func(tk *Task) { tk.Period = 0 }, wantErr: true},
		{name: "aperiodic with period", mutate: func(tk *Task) { tk.Kind = Aperiodic }, wantErr: true},
		{name: "aperiodic ok", mutate: func(tk *Task) { tk.Kind = Aperiodic; tk.Period = 0 }, wantErr: false},
		{name: "no subtasks", mutate: func(tk *Task) { tk.Subtasks = nil }, wantErr: true},
		{name: "bad index", mutate: func(tk *Task) { tk.Subtasks[1].Index = 5 }, wantErr: true},
		{name: "zero exec", mutate: func(tk *Task) { tk.Subtasks[0].Exec = 0 }, wantErr: true},
		{name: "negative processor", mutate: func(tk *Task) { tk.Subtasks[0].Processor = -1 }, wantErr: true},
		{name: "replica equals home", mutate: func(tk *Task) { tk.Subtasks[0].Replicas = []int{0} }, wantErr: true},
		{name: "negative replica", mutate: func(tk *Task) { tk.Subtasks[0].Replicas = []int{-3} }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tk := validTask()
			tt.mutate(tk)
			err := tk.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTaskKindString(t *testing.T) {
	if got := Periodic.String(); got != "periodic" {
		t.Errorf("Periodic.String() = %q", got)
	}
	if got := Aperiodic.String(); got != "aperiodic" {
		t.Errorf("Aperiodic.String() = %q", got)
	}
	if got := TaskKind(0).String(); got != "TaskKind(0)" {
		t.Errorf("TaskKind(0).String() = %q", got)
	}
}

func TestStageAndTotalUtil(t *testing.T) {
	tk := validTask()
	if got, want := tk.StageUtil(0), 0.1; !almostEqual(got, want) {
		t.Errorf("StageUtil(0) = %g, want %g", got, want)
	}
	if got, want := tk.StageUtil(1), 0.05; !almostEqual(got, want) {
		t.Errorf("StageUtil(1) = %g, want %g", got, want)
	}
	if got, want := tk.TotalUtil(), 0.15; !almostEqual(got, want) {
		t.Errorf("TotalUtil() = %g, want %g", got, want)
	}
}

func TestSubtaskCandidates(t *testing.T) {
	st := Subtask{Processor: 3, Replicas: []int{1, 4}}
	got := st.Candidates()
	want := []int{3, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("Candidates() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Candidates() = %v, want %v", got, want)
		}
	}
	// Mutating the result must not affect the subtask.
	got[0] = 99
	if st.Processor != 3 {
		t.Error("Candidates() aliases subtask state")
	}
}

func TestTaskClone(t *testing.T) {
	tk := validTask()
	c := tk.Clone()
	c.Subtasks[0].Exec = time.Second
	c.Subtasks[0].Replicas[0] = 7
	if tk.Subtasks[0].Exec != 50*time.Millisecond {
		t.Error("Clone aliases Subtasks slice")
	}
	if tk.Subtasks[0].Replicas[0] != 2 {
		t.Error("Clone aliases Replicas slice")
	}
}

func TestAssignEDMSPriorities(t *testing.T) {
	mk := func(id string, d time.Duration) *Task {
		return &Task{ID: id, Kind: Aperiodic, Deadline: d,
			Subtasks: []Subtask{{Exec: time.Millisecond}}}
	}
	tasks := []*Task{
		mk("c", 3*time.Second),
		mk("a", time.Second),
		mk("b", time.Second),
		mk("d", 500*time.Millisecond),
	}
	AssignEDMSPriorities(tasks)
	want := map[string]int{"d": 1, "a": 2, "b": 3, "c": 4}
	for _, tk := range tasks {
		if tk.Priority != want[tk.ID] {
			t.Errorf("task %s priority = %d, want %d", tk.ID, tk.Priority, want[tk.ID])
		}
	}
}

// TestAssignEDMSPrioritiesMatchesSliceStable pins the ordering, as EDMSRanks
// returns it and as AssignEDMSPriorities writes it, against the stable sort
// on (Deadline, ID) the function used to make, on inputs that
// reach every part of the radix sort: no keys, one key, zero passes (every
// deadline equal), spans of one, two, four and eight bytes, and full
// (Deadline, ID) ties that fall to input position.
func TestAssignEDMSPrioritiesMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// distinct returns n distinct deadlines: lo, hi and n-2 drawn between.
	distinct := func(n int, lo, hi time.Duration) []time.Duration {
		span := uint64(hi) - uint64(lo)
		seen := map[time.Duration]bool{lo: true, hi: true}
		out := []time.Duration{hi, lo}
		for len(out) < n {
			off := rng.Uint64()
			if span < math.MaxUint64 {
				off %= span + 1
			}
			if d := time.Duration(uint64(lo) + off); !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	// tied draws n deadlines from the first k multiples of step.
	tied := func(n, k int, step time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(1+rng.Intn(k)) * step
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		deadlines []time.Duration
		ids       int // IDs are drawn from t0..t<ids-1>
	}{
		{"10 000 heavily tied", tied(10000, 300, 10*time.Millisecond), 8000},
		{"n=0", nil, 1},
		{"n=1", []time.Duration{time.Second}, 1},
		{"all deadlines equal", tied(500, 1, time.Second), 200},
		{"1-byte span", distinct(200, time.Second, time.Second+255), 1000},
		{"2-byte span", distinct(2000, time.Second, time.Second+math.MaxUint16), 1000},
		{"4-byte span", distinct(2000, time.Second, time.Second+math.MaxUint32), 1000},
		{"8-byte span from 1ns to MaxInt64", distinct(2000, 1, math.MaxInt64), 1000},
		{"full int64 range", distinct(2000, math.MinInt64, math.MaxInt64), 1000},
		{"equal (Deadline, ID) pairs", tied(300, 3, time.Second), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tasks := make([]*Task, len(tc.deadlines))
			for i, d := range tc.deadlines {
				tasks[i] = &Task{
					ID:       fmt.Sprintf("t%d", rng.Intn(tc.ids)),
					Kind:     Aperiodic,
					Deadline: d,
					Subtasks: []Subtask{{Exec: time.Millisecond}},
				}
			}
			order := append([]*Task(nil), tasks...)
			sort.SliceStable(order, func(i, j int) bool {
				if order[i].Deadline != order[j].Deadline {
					return order[i].Deadline < order[j].Deadline
				}
				return order[i].ID < order[j].ID
			})
			want := make(map[*Task]int, len(order))
			for i, tk := range order {
				want[tk] = i + 1
			}
			ranks := EDMSRanks(tasks)
			for i, tk := range tasks {
				if int(ranks[i]) != want[tk] || tk.Priority != 0 {
					t.Fatalf("task %d (%s, deadline %v): EDMSRanks gave %d and left Priority %d, want %d and 0", i, tk.ID, tk.Deadline, ranks[i], tk.Priority, want[tk])
				}
			}
			AssignEDMSPriorities(tasks)
			for i, tk := range tasks {
				if tk.Priority != want[tk] {
					t.Fatalf("task %d (%s, deadline %v) priority = %d, want %d", i, tk.ID, tk.Deadline, tk.Priority, want[tk])
				}
			}
		})
	}
}

func TestJobRefString(t *testing.T) {
	r := JobRef{Task: "alert", Job: 7}
	if got := r.String(); got != "alert#7" {
		t.Errorf("String() = %q", got)
	}
}

func almostEqual(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
