package workload

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/sched"
)

func TestGenerateFigure5Shape(t *testing.T) {
	for set := 0; set < 10; set++ {
		tasks, err := Generate(Figure5Params(set))
		if err != nil {
			t.Fatalf("set %d: %v", set, err)
		}
		if len(tasks) != 9 {
			t.Fatalf("set %d: %d tasks, want 9", set, len(tasks))
		}
		var aper, per int
		for _, tk := range tasks {
			if err := tk.Validate(); err != nil {
				t.Errorf("set %d: %v", set, err)
			}
			switch tk.Kind {
			case sched.Aperiodic:
				aper++
				if tk.MeanInterarrival != tk.Deadline {
					t.Errorf("set %d task %s: mean interarrival %v != deadline %v",
						set, tk.ID, tk.MeanInterarrival, tk.Deadline)
				}
			case sched.Periodic:
				per++
				if tk.Period != tk.Deadline {
					t.Errorf("set %d task %s: period %v != deadline %v", set, tk.ID, tk.Period, tk.Deadline)
				}
				if tk.Phase >= tk.Period {
					t.Errorf("set %d task %s: phase %v >= period %v", set, tk.ID, tk.Phase, tk.Period)
				}
			}
			if tk.Deadline < 250*time.Millisecond || tk.Deadline > 10*time.Second {
				t.Errorf("set %d task %s: deadline %v out of [250ms, 10s]", set, tk.ID, tk.Deadline)
			}
			if n := len(tk.Subtasks); n < 1 || n > 5 {
				t.Errorf("set %d task %s: %d stages, want 1..5", set, tk.ID, n)
			}
			if tk.Priority == 0 {
				t.Errorf("set %d task %s: no EDMS priority assigned", set, tk.ID)
			}
			for _, st := range tk.Subtasks {
				if st.Processor < 0 || st.Processor > 4 {
					t.Errorf("set %d task %s: home processor %d out of range", set, tk.ID, st.Processor)
				}
				if len(st.Replicas) != 1 {
					t.Errorf("set %d task %s: %d replicas, want 1", set, tk.ID, len(st.Replicas))
				}
			}
		}
		if aper != 4 || per != 5 {
			t.Errorf("set %d: %d aperiodic / %d periodic, want 4/5", set, aper, per)
		}
	}
}

// perProcUtil sums home-placed synthetic utilization per processor.
func perProcUtil(tasks []*sched.Task) map[int]float64 {
	utils := make(map[int]float64)
	for _, tk := range tasks {
		for i, st := range tk.Subtasks {
			utils[st.Processor] += tk.StageUtil(i)
		}
	}
	return utils
}

func TestGenerateFigure5UtilizationTarget(t *testing.T) {
	tasks, err := Generate(Figure5Params(0))
	if err != nil {
		t.Fatal(err)
	}
	for proc, u := range perProcUtil(tasks) {
		// Scaling is exact up to the nanosecond rounding of execution times.
		if u < 0.49 || u > 0.51 {
			t.Errorf("processor %d synthetic utilization %g, want 0.5", proc, u)
		}
	}
}

func TestGenerateFigure6Shape(t *testing.T) {
	tasks, err := Generate(Figure6Params(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range tasks {
		if n := len(tk.Subtasks); n < 1 || n > 3 {
			t.Errorf("task %s: %d stages, want 1..3", tk.ID, n)
		}
		for _, st := range tk.Subtasks {
			if st.Processor > 2 {
				t.Errorf("task %s: home processor %d, want group {0,1,2}", tk.ID, st.Processor)
			}
			for _, r := range st.Replicas {
				if r != 3 && r != 4 {
					t.Errorf("task %s: replica on %d, want group {3,4}", tk.ID, r)
				}
			}
		}
	}
	for proc, u := range perProcUtil(tasks) {
		if proc > 2 {
			t.Errorf("home utilization on replica processor %d", proc)
			continue
		}
		if u < 0.69 || u > 0.71 {
			t.Errorf("processor %d synthetic utilization %g, want 0.7", proc, u)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Figure5Params(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Figure5Params(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("different task counts for same seed")
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Deadline != b[i].Deadline ||
			len(a[i].Subtasks) != len(b[i].Subtasks) || a[i].Phase != b[i].Phase {
			t.Fatalf("task %d differs between identical generations", i)
		}
		for s := range a[i].Subtasks {
			if a[i].Subtasks[s].Exec != b[i].Subtasks[s].Exec ||
				a[i].Subtasks[s].Processor != b[i].Subtasks[s].Processor {
				t.Fatalf("task %d stage %d differs between identical generations", i, s)
			}
		}
	}
	// Different sets differ.
	c, err := Generate(Figure5Params(3))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Deadline != c[i].Deadline {
			same = false
			break
		}
	}
	if same {
		t.Error("sets 2 and 3 generated identical deadlines")
	}
}

func TestGenerateValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"no tasks", func(p *Params) { p.NumAperiodic, p.NumPeriodic = 0, 0 }},
		{"bad stages", func(p *Params) { p.MinStages = 0 }},
		{"stages inverted", func(p *Params) { p.MinStages, p.MaxStages = 4, 2 }},
		{"no home procs", func(p *Params) { p.HomeProcs = nil }},
		{"no replica procs", func(p *Params) { p.ReplicaProcs = nil }},
		{"zero util", func(p *Params) { p.TargetUtil = 0 }},
		{"util too high", func(p *Params) { p.TargetUtil = 1.0 }},
		{"bad deadlines", func(p *Params) { p.MinDeadline = 0 }},
		{"deadlines inverted", func(p *Params) { p.MinDeadline, p.MaxDeadline = time.Second, time.Millisecond }},
		{"replica pool collides", func(p *Params) { p.HomeProcs = []int{0}; p.ReplicaProcs = []int{0} }},
		// Every replica draw would meet the home processor and draw again,
		// forever.
		{"repeated replica collides", func(p *Params) { p.HomeProcs = []int{0, 1}; p.ReplicaProcs = []int{1, 1, 1} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := Figure5Params(0)
			tt.mutate(&p)
			if _, err := Generate(p); err == nil {
				t.Error("Generate accepted invalid params")
			}
		})
	}
}

func TestMaxProc(t *testing.T) {
	tasks, err := Generate(Figure6Params(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := MaxProc(tasks); got != 4 {
		t.Errorf("MaxProc = %d, want 4 (replica group)", got)
	}
}

// generatorCases are the parameter sets the generator is held to its
// map-based reference on: the three figure workloads, several scale shapes,
// home processors listed more than once, and a one-element replica pool.
func generatorCases() map[string]Params {
	cases := map[string]Params{
		"scale 50x10000":  ScaleParams(50, 10000, 1),
		"scale 20x2000":   ScaleParams(20, 2000, 2),
		"scale 2x1":       ScaleParams(2, 1, 0),
		"scale 100x999":   ScaleParams(100, 999, 3),
		"scale 7x123/0.9": ScaleParams(7, 123, 4),
	}
	p := cases["scale 7x123/0.9"]
	p.TargetUtil = 0.9
	cases["scale 7x123/0.9"] = p
	for set := 0; set < 10; set++ {
		cases[fmt.Sprintf("figure5/%d", set)] = Figure5Params(set)
		cases[fmt.Sprintf("figure6/%d", set)] = Figure6Params(set)
		cases[fmt.Sprintf("overhead/%d", set)] = OverheadParams(set)
	}
	dup := Figure5Params(4)
	dup.HomeProcs = []int{2, 0, 2, 1, 2, 0}
	dup.NumAperiodic, dup.NumPeriodic = 40, 50
	cases["duplicate homes"] = dup
	one := Figure6Params(5)
	one.ReplicaProcs = []int{4}
	cases["one replica"] = one
	return cases
}

// TestGenerateMatchesReference holds Generate to the map-based generator:
// the same tasks, field for field, bit for bit.
func TestGenerateMatchesReference(t *testing.T) {
	for name, p := range generatorCases() {
		got, err := Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := referenceGenerate(p)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Generate differs from the reference generator", name)
		}
	}
}

// TestGenerateAllocs holds a task set to a fixed number of heap objects: the
// slabs, the ID string and the generator's own scratch, whatever the task
// count, up to the logarithmic growth of a slab whose size guess fell short.
func TestGenerateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count of a 10 000-task set")
	}
	count := func(tasks int) float64 {
		p := ScaleParams(50, tasks, 1)
		return testing.AllocsPerRun(3, func() {
			if _, err := Generate(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := count(1000), count(10000)
	t.Logf("allocations: %.0f at 1 000 tasks, %.0f at 10 000", small, large)
	if large > 64 {
		t.Errorf("10 000 tasks take %.0f allocations, want at most 64", large)
	}
	if large-small > 4 {
		t.Errorf("1 000 tasks take %.0f allocations and 10 000 take %.0f: more than a logarithmic difference", small, large)
	}
}

// TestGenerateSlicesDoNotAlias appends to one generated task's subtask list
// and to each of its replica lists, and requires every other task, which
// shares the slabs, to be unchanged.
func TestGenerateSlicesDoNotAlias(t *testing.T) {
	p := ScaleParams(5, 40, 1)
	want, err := referenceGenerate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		tasks, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		tk := tasks[i]
		for s := range tk.Subtasks {
			tk.Subtasks[s].Replicas = append(tk.Subtasks[s].Replicas, 97)
		}
		tk.Subtasks = append(tk.Subtasks, sched.Subtask{Index: len(tk.Subtasks), Exec: time.Second, Processor: 99, Replicas: []int{98}})
		for j, other := range tasks {
			if j != i && !reflect.DeepEqual(other, want[j]) {
				t.Fatalf("appending to task %d's lists changed task %d", i, j)
			}
		}
	}
}

// FuzzGenerate holds Generate to the map-based reference over small fuzzed
// parameters: seed, task counts, stage bounds, and home and replica lists
// that may repeat a processor. Both must refuse alike or produce equal sets.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(1), uint8(5), []byte{0, 1, 2, 3, 4}, []byte{0, 1, 2, 3, 4}, uint8(50))
	f.Add(int64(7), uint8(4), uint8(5), uint8(1), uint8(3), []byte{0, 1, 2}, []byte{3, 4}, uint8(70))
	f.Add(int64(3), uint8(30), uint8(0), uint8(2), uint8(2), []byte{1, 1, 0}, []byte{1}, uint8(90))
	f.Add(int64(-5), uint8(0), uint8(9), uint8(1), uint8(4), []byte{3, 3, 3}, []byte{3, 2, 3}, uint8(1))
	f.Add(int64(0), uint8(1), uint8(1), uint8(0), uint8(1), []byte{0}, []byte{0}, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, aper, per, minStages, spread uint8, homes, replicas []byte, util uint8) {
		if len(homes) > 16 || len(replicas) > 16 {
			return
		}
		p := Params{
			NumAperiodic: int(aper % 64),
			NumPeriodic:  int(per % 64),
			MinStages:    int(minStages % 6),
			HomeProcs:    procList(homes),
			ReplicaProcs: procList(replicas),
			TargetUtil:   float64(util) / 100,
			MinDeadline:  time.Duration(1+int(aper)) * time.Millisecond,
			MaxDeadline:  time.Duration(1+int(aper)+int(per)*37) * time.Millisecond,
			Seed:         seed,
		}
		p.MaxStages = p.MinStages + int(spread%6)
		got, gotErr := Generate(p)
		want, wantErr := referenceGenerate(p)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("Generate error %v, reference error %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Generate differs from the reference generator for %+v", p)
		}
	})
}

// procList turns fuzz bytes into a processor list over eight processors,
// repeats kept; an empty input stays empty.
func procList(b []byte) []int {
	var out []int
	for _, x := range b {
		out = append(out, int(x%8))
	}
	return out
}

// BenchmarkGenerate generates the sim-sweep task set (50 processors, 10 000
// tasks) with Generate and with the map-based reference.
func BenchmarkGenerate(b *testing.B) {
	p := ScaleParams(50, 10000, 1)
	p.TargetUtil = 0.9
	for _, bc := range []struct {
		name string
		gen  func(Params) ([]*sched.Task, error)
	}{{"slabs", Generate}, {"reference", referenceGenerate}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.gen(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
