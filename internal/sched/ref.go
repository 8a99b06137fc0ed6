package sched

import (
	"cmp"
	"fmt"
	"hash/maphash"
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
// task of that name gets a fresh ref. The zero value is an empty table. It
// is safe for concurrent use.
//
// The name index is linearly probed from each name's home slot and at most
// three quarters full. Its slots hold no pointer: a hit on a name's tag is
// confirmed against the ref's task ID. Unbinding shifts the rest of the
// probe run back into the hole, so it leaves no tombstones.
type TaskTable struct {
	mu    sync.RWMutex
	tasks []*Task
	slots []nameSlot // a power of two long; nil until the first name is bound
	bound int        // the slots in use
}

// nameSlot is one slot of a task table's name index. A bound slot holds a
// ref and the high half of its name's hash with the top bit set, so a zero
// tag marks a free slot; the tag's low bits pick the name's home slot.
//
//rtmw:noscan
type nameSlot struct {
	tag uint32
	ref TaskRef
}

// nameSeed keys every table's name hash.
var nameSeed = maphash.MakeSeed()

// nameTag returns the tag of a name's slot.
func nameTag(name string) uint32 {
	return uint32(maphash.String(nameSeed, name)>>32) | 1<<31
}

// NewTaskTable returns a table in which tasks[i] holds ref i and each name
// is bound to the first ref that carries it; the table takes the slice over.
// It visits the tasks in order and hands check each ref and whether an
// earlier task has the ref's name. The first error check returns ends the
// build, and is returned.
func NewTaskTable(tasks []*Task, check func(ref TaskRef, dup bool) error) (*TaskTable, error) {
	tt := &TaskTable{tasks: tasks, slots: make([]nameSlot, slotsFor(len(tasks)))}
	for i, t := range tasks {
		tag := nameTag(t.ID)
		at, dup := tt.find(t.ID, tag)
		if err := check(TaskRef(i), dup); err != nil {
			return nil, err
		}
		if !dup {
			tt.slots[at] = nameSlot{tag, TaskRef(i)}
			tt.bound++
		}
	}
	return tt, nil
}

// slotsFor returns the least index length, a power of two and at least
// eight, that n names fill to at most three quarters.
func slotsFor(n int) int {
	size := 8
	for size*3 < n*4 {
		size *= 2
	}
	return size
}

// find returns the slot bound to name, whose tag is tag, and true; or else
// the free slot that ends the name's probe run (-1 in an empty index) and
// false.
func (tt *TaskTable) find(name string, tag uint32) (int, bool) {
	if len(tt.slots) == 0 {
		return -1, false
	}
	mask := len(tt.slots) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		s := tt.slots[i]
		if s.tag == 0 || s.tag == tag && tt.tasks[s.ref].ID == name {
			return i, s.tag != 0
		}
	}
}

// bind binds name to ref, growing the index first when it would pass three
// quarters full. The caller holds the write lock.
func (tt *TaskTable) bind(name string, ref TaskRef) {
	if (tt.bound+1)*4 > len(tt.slots)*3 {
		old := tt.slots
		tt.slots = make([]nameSlot, slotsFor(tt.bound+1))
		for _, s := range old {
			if s.tag != 0 {
				i, _ := tt.find(tt.tasks[s.ref].ID, s.tag)
				tt.slots[i] = s
			}
		}
	}
	tag := nameTag(name)
	i, ok := tt.find(name, tag)
	if !ok {
		tt.bound++
	}
	tt.slots[i] = nameSlot{tag, ref}
}

// unbind unbinds name, if bound. Each later slot of the probe run moves
// into the hole unless that would put it before its home. The caller holds
// the write lock.
func (tt *TaskTable) unbind(name string) {
	hole, ok := tt.find(name, nameTag(name))
	if !ok {
		return
	}
	mask := len(tt.slots) - 1
	for j := (hole + 1) & mask; tt.slots[j].tag != 0; j = (j + 1) & mask {
		// The slot lies at least as far from its home as from the hole.
		if (j-int(tt.slots[j].tag))&mask >= (j-hole)&mask {
			tt.slots[hole], hole = tt.slots[j], j
		}
	}
	tt.slots[hole] = nameSlot{}
	tt.bound--
}

// Lookup returns the ref currently bound to a name.
func (tt *TaskTable) Lookup(name string) (TaskRef, bool) {
	tt.mu.RLock()
	ref, ok := tt.lookup(name)
	tt.mu.RUnlock()
	return ref, ok
}

// lookup is Lookup under a lock the caller holds.
func (tt *TaskTable) lookup(name string) (TaskRef, bool) {
	if i, ok := tt.find(name, nameTag(name)); ok {
		return tt.slots[i].ref, true
	}
	return 0, false
}

// Intern returns the ref bound to t's name, giving t a fresh one when the
// name has none.
func (tt *TaskTable) Intern(t *Task) TaskRef {
	if ref, ok := tt.Lookup(t.ID); ok {
		return ref
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if ref, ok := tt.lookup(t.ID); ok {
		return ref
	}
	ref := TaskRef(len(tt.tasks))
	tt.tasks = append(tt.tasks, t)
	tt.bind(t.ID, ref)
	return ref
}

// Drop unbinds a name; its refs keep their tasks.
func (tt *TaskTable) Drop(name string) {
	tt.mu.Lock()
	tt.unbind(name)
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
// deployment plan), and binds t's name to it. The name of the task t
// replaces, if it was still bound to ref, is unbound.
func (tt *TaskTable) Bind(ref TaskRef, t *Task) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if n := int(ref) + 1 - len(tt.tasks); n > 0 {
		tt.tasks = append(tt.tasks, make([]*Task, n)...)
	}
	if old := tt.tasks[ref]; old != nil {
		if cur, ok := tt.lookup(old.ID); ok && cur == ref {
			tt.unbind(old.ID)
		}
	}
	tt.tasks[ref] = t
	tt.bind(t.ID, ref)
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
