package sched

import (
	"sync"
	"time"
)

// ShardedLedger is the Ledger behind one mutex: the admission ledger a
// controller shares between goroutines (the live AC's decisions, expiry
// timers and idle-reset reports) and the one the simulation drives from a
// single goroutine. Every method locks, delegates to the Ledger and unlocks,
// so decisions and floating-point state are the plain ledger's bit for bit,
// and TestAndAdd makes the admission test and the commit one critical
// section. The methods taking a JobKey or a TaskRef are the key-keyed cores
// a binding that hands out refs calls; the rest are the name edge.
//
// The name and NewShardedLedger's shards argument survive only because the
// frozen benchmark probe (benchmark/probe_sched.go) calls them; ROADMAP item
// 1(a)'s [benchmark] PR renames them.
type ShardedLedger struct {
	mu sync.Mutex
	l  *Ledger
}

// NewShardedLedger returns an empty ledger over numProcs processors, with a
// task table of its own. shards is ignored: there is one ledger and one
// mutex (see ShardedLedger).
func NewShardedLedger(numProcs, shards int) *ShardedLedger {
	return NewShardedLedgerFor(NewTaskTable(nil, nil), numProcs)
}

// NewShardedLedgerFor returns an empty ledger over numProcs processors whose
// jobs are keyed by refs from tasks, the table of the binding that hands
// them out.
func NewShardedLedgerFor(tasks *TaskTable, numProcs int) *ShardedLedger {
	return &ShardedLedger{l: newLedger(tasks, numProcs)}
}

// NumProcs returns the number of processors the ledger tracks (fixed at
// construction, so it needs no lock).
func (sl *ShardedLedger) NumProcs() int { return sl.l.NumProcs() }

// Util returns the processor's current synthetic utilization.
func (sl *ShardedLedger) Util(proc int) float64 {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.Util(proc)
}

// Utils returns a copy of all per-processor synthetic utilizations.
func (sl *ShardedLedger) Utils() []float64 {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.Utils()
}

// Admissible evaluates the AUB admission test for a candidate placement
// without recording it (Ledger.Admissible).
func (sl *ShardedLedger) Admissible(placement []PlacedStage) bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.Admissible(placement)
}

// AddJob records a job's contributions without an admission test
// (Ledger.AddJob). Tests and benchmarks use it to build ledger states,
// overloaded ones included.
func (sl *ShardedLedger) AddJob(ref JobRef, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.AddJob(ref, kind, placement, permanent, expiry)
}

// TestAndAdd is TestAndAddKey for a job named by task name; a name the
// ledger's table does not know is bound to a fresh ref.
//
//rtmw:noalloc
func (sl *ShardedLedger) TestAndAdd(ref JobRef, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) (bool, error) {
	return sl.TestAndAddKey(JobKey{Task: sl.l.tasks.intern(ref.Task, nil), Job: ref.Job}, kind, placement, permanent, expiry)
}

// TestAndAddKey runs the AUB admission test and, on success, records the
// job, under one lock — what an Admissible/AddJob pair cannot be, since two
// concurrent candidates could both pass a test with room for one. It returns
// whether the job was admitted; the error reports argument problems or a
// double admission (both also rejections).
//
//rtmw:noalloc
func (sl *ShardedLedger) TestAndAddKey(k JobKey, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) (bool, error) {
	// Admissible indexes its scratch by processor, so the placement is
	// checked before it is tested.
	if err := sl.l.checkPlacement(k, placement); err != nil {
		return false, err
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if !sl.l.Admissible(placement) {
		return false, nil
	}
	if err := sl.l.addJob(k, kind, placement, permanent, expiry); err != nil {
		return false, err
	}
	return true, nil
}

// ExpireJob removes the job's non-permanent contributions at its absolute
// deadline (Ledger.ExpireJob) and returns how many it removed.
func (sl *ShardedLedger) ExpireJob(ref JobRef) int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.ExpireJob(ref)
}

// ExpireKey is ExpireJob by key.
//
//rtmw:noalloc
func (sl *ShardedLedger) ExpireKey(k JobKey) int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.expireKey(k)
}

// WithdrawJob removes every remaining contribution of one job, permanent
// reservations included (Ledger.WithdrawJob).
func (sl *ShardedLedger) WithdrawJob(ref JobRef) int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.WithdrawJob(ref)
}

// WithdrawKey is WithdrawJob by key.
func (sl *ShardedLedger) WithdrawKey(k JobKey) int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.withdrawKey(k)
}

// RemoveTask withdraws every job of one task (Ledger.RemoveTask).
func (sl *ShardedLedger) RemoveTask(task string) int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.RemoveTask(task)
}

// RemoveTaskRef is RemoveTask by ref.
func (sl *ShardedLedger) RemoveTaskRef(tr TaskRef) int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.removeTaskRef(tr)
}

// MarkComplete records that a stage of the job finished executing
// (Ledger.MarkComplete).
func (sl *ShardedLedger) MarkComplete(ref JobRef, stage int) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.l.MarkComplete(ref, stage)
}

// ResetEntry applies the idle resetting rule to one contribution
// (Ledger.ResetEntry).
func (sl *ShardedLedger) ResetEntry(r EntryRef) bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.ResetEntry(r)
}

// ResetReported applies one idle-resetting report entry
// (Ledger.ResetReported).
func (sl *ShardedLedger) ResetReported(r EntryRef) bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.ResetReported(r)
}

// ResetReportedKey is ResetReported by key.
//
//rtmw:noalloc
func (sl *ShardedLedger) ResetReportedKey(r Entry[JobKey]) bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.resetReportedKey(r)
}

// CompletedOn returns the completed, still-active contributions on a
// processor (Ledger.CompletedOn).
func (sl *ShardedLedger) CompletedOn(proc int, includePeriodic bool) []EntryRef {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.CompletedOn(proc, includePeriodic)
}

// Relocate moves a job's active contributions to a new placement
// (Ledger.Relocate).
func (sl *ShardedLedger) Relocate(ref JobRef, placement []PlacedStage) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.Relocate(ref, placement)
}

// RelocateKey is Relocate by key.
func (sl *ShardedLedger) RelocateKey(k JobKey, placement []PlacedStage) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.relocateKey(k, placement)
}

// ActiveJobs returns the jobs still holding an active contribution, in
// deterministic order (Ledger.ActiveJobs).
func (sl *ShardedLedger) ActiveJobs() []JobRef {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.ActiveJobs()
}

// CheckInvariants audits every index of the ledger (Ledger.CheckInvariants).
// It holds the lock throughout, so it is safe while decisions are live.
func (sl *ShardedLedger) CheckInvariants() error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.l.CheckInvariants()
}
