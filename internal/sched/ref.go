package sched

import (
	"cmp"
	"fmt"
	"sync"
)

// TaskRef is a task's dense identity inside one binding. The binding hands
// one out when a task enters it and never hands the same one out twice: a
// task removed and added again under its old name gets a new ref, so state
// keyed by the old one (a pending expiry, an idle report in flight) cannot
// reach the new incarnation. Names stay at the binding's edge; everything
// beneath keys per-task state on the ref.
type TaskRef int32

// JobKey names one job by its task's ref, where JobRef names it by task
// name: the ledger's job key, and a job's identity on the live wire.
type JobKey struct {
	Task TaskRef
	Job  int64
}

// String renders the key as "ref#job".
func (k JobKey) String() string { return fmt.Sprintf("%d#%d", k.Task, k.Job) }

// compare orders keys by task ref, then job number.
func (k JobKey) compare(o JobKey) int {
	if c := cmp.Compare(k.Task, o.Task); c != 0 {
		return c
	}
	return cmp.Compare(k.Job, o.Job)
}

// Entry names one ledger contribution: a job, its stage and the processor
// carrying the stage's utilization. Idle resetters report these back to the
// admission controller.
type Entry[J comparable] struct {
	// Ref is the owning job.
	Ref J
	// Stage is the subtask index within the job.
	Stage int
	// Proc is the processor carrying the contribution.
	Proc int
}

// EntryRef is a contribution whose job is named by task name: the name edge
// of Controller.IdleReset. Every binding reports Entry[JobKey].
type EntryRef = Entry[JobRef]

// TaskTable is one binding's task identities: the task behind each ref, and
// the current ref of each name for the calls that arrive by name. A ref's
// slot is never reused or cleared; Drop only unbinds the name, so the next
// task of that name gets a fresh ref. It is safe for concurrent use.
type TaskTable struct {
	mu    sync.RWMutex
	tasks []*Task
	// index maps each bound name to its current ref; nil until the first
	// name is bound.
	index map[string]TaskRef
}

// NewTaskTable returns a table in which tasks[i] holds ref i and index binds
// each name to its ref (nil is an empty index). The table takes both over:
// a binding that already built them for itself shares them instead of
// copying.
func NewTaskTable(tasks []*Task, index map[string]TaskRef) *TaskTable {
	return &TaskTable{tasks: tasks, index: index}
}

// Lookup returns the ref currently bound to a name.
func (tt *TaskTable) Lookup(name string) (TaskRef, bool) {
	tt.mu.RLock()
	ref, ok := tt.index[name]
	tt.mu.RUnlock()
	return ref, ok
}

// Intern returns the ref bound to t's name, giving t a fresh one when the
// name has none.
func (tt *TaskTable) Intern(t *Task) TaskRef {
	if ref, ok := tt.Lookup(t.ID); ok {
		return ref
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if ref, ok := tt.index[t.ID]; ok {
		return ref
	}
	ref := TaskRef(len(tt.tasks))
	tt.tasks = append(tt.tasks, t)
	if tt.index == nil {
		tt.index = make(map[string]TaskRef)
	}
	tt.index[t.ID] = ref
	return ref
}

// Drop unbinds a name; its refs keep their tasks.
func (tt *TaskTable) Drop(name string) {
	tt.mu.Lock()
	delete(tt.index, name)
	tt.mu.Unlock()
}

// Tasks returns every ref's task, indexed by ref. The slice is shared:
// callers must not modify it, and it does not see later Adds.
func (tt *TaskTable) Tasks() []*Task {
	tt.mu.RLock()
	defer tt.mu.RUnlock()
	return tt.tasks
}

// Bind makes t the task of ref, a ref the binding handed out elsewhere (a
// deployment plan), and binds t's name to it.
func (tt *TaskTable) Bind(ref TaskRef, t *Task) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if n := int(ref) + 1 - len(tt.tasks); n > 0 {
		tt.tasks = append(tt.tasks, make([]*Task, n)...)
	}
	tt.tasks[ref] = t
	if tt.index == nil {
		tt.index = make(map[string]TaskRef)
	}
	tt.index[t.ID] = ref
}

// Task returns ref's task, or nil for a ref the table never held.
func (tt *TaskTable) Task(ref TaskRef) *Task {
	tt.mu.RLock()
	defer tt.mu.RUnlock()
	if ref < 0 || int(ref) >= len(tt.tasks) {
		return nil
	}
	return tt.tasks[ref]
}
