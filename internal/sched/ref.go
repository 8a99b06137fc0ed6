package sched

import "sync"

// TaskRef is a task's dense identity inside one binding. The binding hands
// one out when a task enters it and never hands the same one out twice: a
// task removed and added again under its old name gets a new ref, so state
// keyed by the old one (a pending expiry, an idle report in flight) cannot
// reach the new incarnation. Names stay at the binding's edge; everything
// beneath keys per-task state on the ref.
type TaskRef int32

// JobKey names one job by its task's ref, where JobRef names it by task
// name: the ledger's job key.
type JobKey struct {
	Task TaskRef
	Job  int64
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

// EntryRef is a contribution whose job is named by task name, as it travels
// between nodes; the simulation reports Entry[JobKey].
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
func (tt *TaskTable) Intern(t *Task) TaskRef { return tt.intern(t.ID, t) }

// intern is Intern by name; a nil t registers a task that carries only the
// name (the ledger's name-keyed calls know no more).
func (tt *TaskTable) intern(name string, t *Task) TaskRef {
	if ref, ok := tt.Lookup(name); ok {
		return ref
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if ref, ok := tt.index[name]; ok {
		return ref
	}
	if t == nil {
		t = &Task{ID: name}
	}
	ref := TaskRef(len(tt.tasks))
	tt.tasks = append(tt.tasks, t)
	if tt.index == nil {
		tt.index = make(map[string]TaskRef)
	}
	tt.index[name] = ref
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

// Name returns the name of a ref's task.
func (tt *TaskTable) Name(ref TaskRef) string {
	tt.mu.RLock()
	defer tt.mu.RUnlock()
	return tt.tasks[ref].ID
}

// jobRef renders a job key as the name-keyed reference.
func (tt *TaskTable) jobRef(k JobKey) JobRef {
	return JobRef{Task: tt.Name(k.Task), Job: k.Job}
}
