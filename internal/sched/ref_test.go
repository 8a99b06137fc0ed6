package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// refTable is the task table as a Go map: the reference FuzzTaskTable holds
// the slot index to. Bind unbinds the name of the task it replaces when
// that name was still bound to the ref.
type refTable struct {
	tasks []*Task
	index map[string]TaskRef
}

func (r *refTable) intern(t *Task) TaskRef {
	if ref, ok := r.index[t.ID]; ok {
		return ref
	}
	ref := TaskRef(len(r.tasks))
	r.tasks = append(r.tasks, t)
	r.index[t.ID] = ref
	return ref
}

func (r *refTable) bind(ref TaskRef, t *Task) {
	for int(ref) >= len(r.tasks) {
		r.tasks = append(r.tasks, nil)
	}
	if old := r.tasks[ref]; old != nil {
		if cur, ok := r.index[old.ID]; ok && cur == ref {
			delete(r.index, old.ID)
		}
	}
	r.tasks[ref] = t
	r.index[t.ID] = ref
}

func (r *refTable) task(ref TaskRef) *Task {
	if ref < 0 || int(ref) >= len(r.tasks) {
		return nil
	}
	return r.tasks[ref]
}

// auditTaskTable checks the slot index against its own rules: a power-of-two
// length at most three quarters bound, free slots zero, every bound slot
// holding a live ref whose task's name carries the slot's tag and is found
// at that slot from its home, and bound counting the slots in use.
func auditTaskTable(tt *TaskTable) error {
	n := len(tt.slots)
	if n&(n-1) != 0 || tt.bound*4 > n*3 {
		return fmt.Errorf("%d slots hold %d names", n, tt.bound)
	}
	used := 0
	for i, s := range tt.slots {
		if s.tag == 0 {
			if s.ref != 0 {
				return fmt.Errorf("free slot %d holds ref %d", i, s.ref)
			}
			continue
		}
		used++
		if s.ref < 0 || int(s.ref) >= len(tt.tasks) || tt.tasks[s.ref] == nil {
			return fmt.Errorf("slot %d holds ref %d, which has no task", i, s.ref)
		}
		name := tt.tasks[s.ref].ID
		if nameTag(name) != s.tag {
			return fmt.Errorf("slot %d holds ref %d under a tag not its name's (%q)", i, s.ref, name)
		}
		if at, ok := tt.find(name, s.tag); !ok || at != i {
			return fmt.Errorf("slot %d binds %q, but a probe finds it at %d (%v)", i, name, at, ok)
		}
	}
	if used != tt.bound {
		return fmt.Errorf("%d slots in use, bound says %d", used, tt.bound)
	}
	return nil
}

// FuzzTaskTable drives the slot index through Intern, Bind, Drop, Lookup
// and Task, and through the live cluster's redeployment (every name
// dropped, then a new set bound to its plan's refs), against the map
// reference. Names come from a small set, so they are dropped and added
// again, and the table grows through several sizes. After every operation
// the table is audited and every name and ref must read as the reference
// reads them.
func FuzzTaskTable(f *testing.F) {
	for i := range 3 {
		data := make([]byte, 2048)
		rand.New(rand.NewSource(int64(i))).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{data}
		names := make([]string, 40)
		for i := range names {
			names[i] = fmt.Sprintf("task-%d", i)
		}
		newTask := func() *Task { return &Task{ID: names[src.Intn(len(names))]} }

		// The table starts from NewTaskTable over a few tasks, duplicates
		// among them; the first ref of each name is bound.
		ref := &refTable{index: map[string]TaskRef{}}
		initial := make([]*Task, src.Intn(12))
		for i := range initial {
			initial[i] = newTask()
			if _, dup := ref.index[initial[i].ID]; !dup {
				ref.index[initial[i].ID] = TaskRef(i)
			}
		}
		ref.tasks = append([]*Task(nil), initial...)
		tt, err := NewTaskTable(append([]*Task(nil), initial...), func(r TaskRef, dup bool) error {
			if want := r != ref.index[initial[r].ID]; dup != want {
				return fmt.Errorf("task %d (%s): dup %v, want %v", r, initial[r].ID, dup, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		for step := 0; len(src.b) > 0 && step < 300; step++ {
			op := src.next() % 6
			switch op {
			case 0:
				task := newTask()
				if got, want := tt.Intern(task), ref.intern(task); got != want {
					t.Fatalf("step %d: Intern(%s) = %d, want %d", step, task.ID, got, want)
				}
			case 1:
				r, task := TaskRef(src.Intn(len(ref.tasks)+3)), newTask()
				tt.Bind(r, task)
				ref.bind(r, task)
			case 2:
				name := names[src.Intn(len(names))]
				tt.Drop(name)
				delete(ref.index, name)
			case 3, 4:
				// Lookup and Task are checked for every name and ref below.
			case 5:
				// Redeploy: drop every bound name, then bind a new set of
				// distinct names to distinct refs.
				for name := range ref.index {
					tt.Drop(name)
				}
				clear(ref.index)
				used := map[TaskRef]bool{}
				for range src.Intn(10) {
					task, r := newTask(), TaskRef(src.Intn(len(ref.tasks)+4))
					if _, ok := ref.index[task.ID]; ok || used[r] {
						continue
					}
					used[r] = true
					tt.Bind(r, task)
					ref.bind(r, task)
				}
			}
			if err := auditTaskTable(tt); err != nil {
				t.Fatalf("step %d (op %d): %v", step, op, err)
			}
			for _, name := range names {
				got, ok := tt.Lookup(name)
				want, wok := ref.index[name]
				if ok != wok || got != want {
					t.Fatalf("step %d (op %d): Lookup(%s) = %d, %v; want %d, %v", step, op, name, got, ok, want, wok)
				}
			}
			for r := TaskRef(-1); int(r) <= len(ref.tasks); r++ {
				if got, want := tt.Task(r), ref.task(r); got != want {
					t.Fatalf("step %d (op %d): Task(%d) = %v, want %v", step, op, r, got, want)
				}
			}
			if got := tt.Tasks(); len(got) != len(ref.tasks) {
				t.Fatalf("step %d (op %d): %d tasks, want %d", step, op, len(got), len(ref.tasks))
			}
		}
	})
}

// TestNewTaskTableStopsAtCheck holds NewTaskTable to the first error its
// check returns: no later task is visited.
func TestNewTaskTableStopsAtCheck(t *testing.T) {
	tasks := []*Task{{ID: "a"}, {ID: "b"}, {ID: "a"}, {ID: "c"}}
	stop := errors.New("stop")
	var visited []TaskRef
	tt, err := NewTaskTable(tasks, func(ref TaskRef, dup bool) error {
		visited = append(visited, ref)
		if dup {
			return stop
		}
		return nil
	})
	if tt != nil || err != stop || len(visited) != 3 {
		t.Fatalf("NewTaskTable = %v, %v after visiting %v; want nil, stop after 0 1 2", tt, err, visited)
	}
}

// TestTaskTableRedeployStaysSmall repeats the live cluster's redeployment
// (drop every name, bind the next set) many times over: deletion leaves no
// tombstones, so the index keeps the size its largest set needs.
func TestTaskTableRedeployStaysSmall(t *testing.T) {
	tt := new(TaskTable)
	var bound []*Task
	next := TaskRef(0)
	for round := range 500 {
		for _, task := range bound {
			tt.Drop(task.ID)
		}
		bound = bound[:0]
		for i := range 100 {
			task := &Task{ID: fmt.Sprintf("r%d-%d", round%7, i)}
			tt.Bind(next, task)
			bound = append(bound, task)
			next++
		}
		if err := auditTaskTable(tt); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if len(tt.slots) != slotsFor(100) || tt.bound != 100 {
		t.Fatalf("after 500 redeployments of 100 tasks the index has %d slots holding %d names, want %d holding 100", len(tt.slots), tt.bound, slotsFor(100))
	}
}

// TestTaskTableLookupDuringIntern reads names while another goroutine
// interns new tasks and drops and re-interns old ones (run it with -race):
// a name found always leads to a task of that name.
func TestTaskTableLookupDuringIntern(t *testing.T) {
	const n = 2000
	tt := new(TaskTable)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("task-%d", i)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, name := range names {
					if ref, ok := tt.Lookup(name); ok {
						if task := tt.Task(ref); task == nil || task.ID != name {
							errs <- fmt.Errorf("Lookup(%s) = %d, whose task is %v", name, ref, task)
							return
						}
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i, name := range names {
		tt.Intern(&Task{ID: name})
		if i%10 == 9 {
			old := names[i/2]
			tt.Drop(old)
			tt.Intern(&Task{ID: old})
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := auditTaskTable(tt); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if ref, ok := tt.Lookup(name); !ok || tt.Task(ref).ID != name {
			t.Fatalf("Lookup(%s) = %d, %v after the writer finished", name, ref, ok)
		}
	}
}
