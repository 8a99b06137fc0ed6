package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// AUBTerm computes the per-processor term of the aperiodic utilization bound
// condition: f(u) = u(1 - u/2) / (1 - u). The condition for task T_i under
// EDMS is Σ_j f(U_Vij) ≤ 1 over the processors T_i visits (condition (1) in
// the paper, after Abdelzaher et al.). For u ≥ 1 the term is +Inf: a fully
// (or over-) utilized processor can never satisfy the condition.
func AUBTerm(u float64) float64 {
	if u >= 1 {
		return math.Inf(1)
	}
	if u <= 0 {
		return 0
	}
	return u * (1 - u/2) / (1 - u)
}

// PathFeasible reports whether a task visiting processors with the given
// synthetic utilizations satisfies the AUB condition Σ f(u) ≤ 1.
func PathFeasible(utils []float64) bool {
	var sum float64
	for _, u := range utils {
		sum += AUBTerm(u)
		if sum > 1 {
			return false
		}
	}
	return sum <= 1
}

// RemovalReason records why a contribution left the ledger.
type RemovalReason int

// Removal reasons. Enums start at one; the zero value means "not removed".
const (
	// RemovedExpiry marks contributions removed because the job's absolute
	// deadline passed, at which point the task leaves the current task set
	// S(t).
	RemovedExpiry RemovalReason = iota + 1
	// RemovedIdleReset marks contributions of completed subjobs removed
	// early by the idle resetting rule.
	RemovedIdleReset
	// RemovedRelocation marks contributions withdrawn because the load
	// balancer re-allocated the stage to a different processor.
	RemovedRelocation
	// RemovedWithdrawal marks contributions withdrawn because the whole
	// task left the system (RemoveTask), before any deadline expired.
	RemovedWithdrawal
)

// String returns the lowercase name of the reason.
func (r RemovalReason) String() string {
	switch r {
	case RemovedExpiry:
		return "expiry"
	case RemovedIdleReset:
		return "idle-reset"
	case RemovedRelocation:
		return "relocation"
	case RemovedWithdrawal:
		return "withdrawal"
	default:
		return fmt.Sprintf("RemovalReason(%d)", int(r))
	}
}

// PlacedStage is one stage of a job bound to a concrete processor, with its
// synthetic utilization amount. The admission controller obtains placements
// from the load balancer and records them in the ledger.
type PlacedStage struct {
	// Stage is the zero-based subtask index.
	Stage int
	// Proc is the processor the stage will execute on.
	Proc int
	// Util is the stage's synthetic utilization contribution C/D.
	Util float64
}

// entry is one live or historical contribution record.
type entry struct {
	key       JobKey
	stage     int
	proc      int
	amount    float64
	kind      TaskKind
	permanent bool
	expiry    time.Duration // absolute virtual deadline; 0 when permanent
	completed bool
	removed   RemovalReason // 0 while active
	// procPos is the entry's position in procEntries[proc] while active,
	// maintained by procEntryAdd/procEntryRemove.
	procPos int
}

// jobRec groups the entries of one admitted job.
type jobRec struct {
	entries []*entry
	// key is the job's place in Ledger.jobs, and prevT/nextT link it into its
	// task's list (Ledger.taskHead): the per-task index is threaded through
	// the records themselves, so a task's first job allocates no index.
	key          JobKey
	prevT, nextT *jobRec
	// group is the signature group the job currently belongs to; nil while
	// the job has no active contribution.
	group *sigGroup
	// counted reports whether the job is currently included in
	// group.counted (it is in flight and active).
	counted bool
}

// active reports whether the job still carries at least one non-removed
// contribution.
func (j *jobRec) active() bool {
	for _, e := range j.entries {
		if e.removed == 0 {
			return true
		}
	}
	return false
}

// inFlight reports whether the job still has at least one uncompleted stage.
// Only in-flight jobs can still miss their deadlines, so the admission test
// is evaluated over in-flight jobs plus the candidate.
func (j *jobRec) inFlight() bool {
	for _, e := range j.entries {
		if !e.completed {
			return true
		}
	}
	return false
}

// appendSignature appends the job's processor-visit signature to procs and
// counts: the distinct processors its active (non-removed) entries occupy,
// sorted, with the number of entries on each. Jobs with equal signatures
// have identical AUB sums, so the ledger evaluates each signature once per
// admission test instead of once per job. Both come back empty for a job
// with no active contribution.
func appendSignature(procs, counts []int, j *jobRec) ([]int, []int) {
	for _, e := range j.entries {
		if e.removed != 0 {
			continue
		}
		found := false
		for i := range procs {
			if procs[i] == e.proc {
				counts[i]++
				found = true
				break
			}
		}
		if !found {
			procs = append(procs, e.proc)
			counts = append(counts, 1)
		}
	}
	// Insertion sort of the parallel arrays; a job has at most a handful of
	// stages.
	for i := 1; i < len(procs); i++ {
		for k := i; k > 0 && procs[k] < procs[k-1]; k-- {
			procs[k], procs[k-1] = procs[k-1], procs[k]
			counts[k], counts[k-1] = counts[k-1], counts[k]
		}
	}
	return procs, counts
}

// sigHash hashes a signature's (processor, count) pairs: the signature
// groups' map key. Equal signatures hash equal; groups whose hashes collide
// share a chain and are told apart by sameSig.
func sigHash(procs, counts []int) uint64 {
	h := uint64(len(procs))
	for i, p := range procs {
		h = (h ^ uint64(p)<<32 ^ uint64(counts[i])) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// sigString renders a signature as "proc:count,...", for messages.
func sigString(procs, counts []int) string {
	var b strings.Builder
	for i, p := range procs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", p, counts[i])
	}
	return b.String()
}

// sigGroup aggregates every ledger job sharing one processor-visit
// signature. The AUB condition of a job depends only on its signature (the
// per-processor terms are shared by all jobs), so one cached sum serves the
// whole group and Admissible touches groups, not jobs.
//
// The four fields the admission scan reads to pass a group by come first, so
// the skip touches one cache line of the record.
type sigGroup struct {
	// counted is the number of member jobs that are in flight and active —
	// exactly the jobs the admission test must cover.
	counted int
	// scanned is the Ledger.scan value of the last admission test that
	// summed the group, so a group indexed under several perturbed
	// processors is summed once per test.
	scanned uint64
	// cachedSum is an upper bound on Σ_p count[p]·f(util[p]) under the
	// current utilizations, written only by refreshGroupSum (always a fresh
	// sum, never an incremental adjustment). It is exact after any of the
	// group's processors grew, after the group's 0 → counted transition, and
	// after every utilization change made while Ledger.violated > 0; a
	// processor that shrinks while nothing is violated leaves it stale, which
	// only ever leaves it too high. For a counted group it lies on the same
	// side of 1 as the fresh sum, so Ledger.violated is an exact count.
	cachedSum float64
	// maxCount is the signature's largest per-processor entry count, as a
	// float64 for the scan's bound: a candidate raises the group's sum by at
	// most maxCount times the total growth of the perturbed terms.
	maxCount float64

	// hash is sigHash of the signature, the group's key in Ledger.groups,
	// and next chains the groups sharing that key.
	hash   uint64
	next   *sigGroup
	procs  []int // sorted distinct processors of the signature
	counts []int // active entries per processor, parallel to procs
	// procPos holds, parallel to procs, the group's position in each
	// processor's procGroups slice, maintained by procGroupAdd/Remove.
	procPos []int
	// members is the number of jobRecs pointing at this group.
	members int
}

// sameSig reports whether the group's signature is exactly (procs, counts).
func (g *sigGroup) sameSig(procs, counts []int) bool {
	return slices.Equal(g.procs, procs) && slices.Equal(g.counts, counts)
}

// boundMargin is the slack admitScan keeps below 1 when it passes a group on
// its cached bound instead of summing it. The bound and the exact sum are
// both sums of at most eight products of magnitude ≤ 1, so they differ from
// the real-number values by a few ulps (~1e-15); the margin is six orders of
// magnitude above that, and a group within it of the bound is simply summed.
const boundMargin = 1e-9

// Ledger is the synthetic-utilization ledger maintained by the admission
// controller. It tracks, per processor, the sum of C/D contributions of the
// current task set, with per-entry state so the per-task/per-job admission
// strategies and the three idle-resetting strategies are all policies over
// the same records.
//
// Internally the ledger is fully indexed so the admission hot path never
// scans the job map: per-processor entry sets serve CompletedOn, a
// task→jobs list serves RemoveTask, and jobs are aggregated into
// processor-visit signature groups with cached AUB sums so Admissible only
// re-evaluates the groups whose processors a candidate perturbs.
//
// Jobs are keyed by JobKey, the task's dense ref from the ledger's
// TaskTable. The methods taking a JobRef or a task name are the name edge:
// each resolves the name through the table once (AddJob binds an unknown
// name to a fresh ref) and runs the key-keyed core. A name stays bound
// across RemoveTask, so a task re-registered here keeps its ref; a binding
// that wants a fresh one drops the name from the table.
//
// Ledger is not safe for concurrent use; the admission controller serializes
// access (the paper's architecture is a single centralized AC).
type Ledger struct {
	util []float64
	term []float64 // term[p] = AUBTerm(util[p]), maintained with util
	jobs map[JobKey]*jobRec
	// tasks names the refs the jobs are keyed by; it is shared with the
	// binding that hands the refs out.
	tasks *TaskTable

	procEntries [][]*entry           // active entries per processor (swap-remove via entry.procPos)
	taskHead    []*jobRec            // per task ref, its jobs, newest first (jobRec.prevT/nextT); grown on demand
	groups      map[uint64]*sigGroup // sigHash → groups with that hash, chained through sigGroup.next
	procGroups  [][]*sigGroup        // groups whose signature visits proc (swap-remove via sigGroup.procPos)
	// violated counts groups with counted > 0 whose sum already exceeds 1
	// (for a counted group cachedSum and the fresh sum agree on that): while
	// any exist, no candidate is admissible (adding utilization can only
	// grow a group's sum).
	violated int

	// Record pools: entry, jobRec and sigGroup records cycle through free
	// lists instead of the heap, so steady-state admission traffic (admit →
	// reset/expire → forget) allocates nothing once the pools warm up, and
	// the entry and jobRec pools warm up poolChunk records at a time.
	// Recycling happens only in forgetJob/leaveGroup, after every index has
	// dropped its pointer.
	freeEntries []*entry
	freeRecs    []*jobRec
	freeGroups  []*sigGroup

	// Signature scratch for reindex: parallel (proc, count) arrays reused
	// across calls, so deriving a job's signature allocates nothing.
	sigProcs  []int
	sigCounts []int

	// candDelta/candTerm are Admissible's dense scratch: the candidate's
	// per-processor utilization delta and the tentative AUB terms of the
	// perturbed processors, computed once per test instead of once per
	// signature-group visit. Zeroed (for the touched processors) on exit.
	candDelta []float64
	candTerm  []float64
	// scan numbers the admission tests; see sigGroup.scanned. Starting at
	// zero and incrementing before use, it never equals the stamp of a fresh
	// or recycled group by accident: stamps only ever hold earlier values.
	scan uint64
}

// NewLedger returns an empty ledger over numProcs processors numbered
// 0..numProcs-1, with a task table of its own.
func NewLedger(numProcs int) *Ledger {
	return newLedger(NewTaskTable(nil, nil), numProcs)
}

func newLedger(tasks *TaskTable, numProcs int) *Ledger {
	return &Ledger{
		util:        make([]float64, numProcs),
		term:        make([]float64, numProcs),
		jobs:        make(map[JobKey]*jobRec),
		tasks:       tasks,
		procEntries: make([][]*entry, numProcs),
		groups:      make(map[uint64]*sigGroup),
		procGroups:  make([][]*sigGroup, numProcs),
	}
}

// NumProcs returns the number of processors the ledger tracks.
func (l *Ledger) NumProcs() int { return len(l.util) }

// poolChunk is how many records an empty entry or jobRec pool allocates at
// once: a run in which most jobs are a task's first pays the allocator once
// per 64 records instead of once per record.
const poolChunk = 64

// refill restocks an empty record pool with poolChunk records cut from one
// allocation.
func refill[T any](free []*T) []*T {
	chunk := make([]T, poolChunk)
	free = slices.Grow(free, poolChunk)
	for i := range chunk {
		free = append(free, &chunk[i])
	}
	return free
}

// allocEntry takes a zeroed entry from the pool.
func (l *Ledger) allocEntry() *entry {
	if len(l.freeEntries) == 0 {
		l.freeEntries = refill(l.freeEntries)
	}
	n := len(l.freeEntries)
	e := l.freeEntries[n-1]
	l.freeEntries = l.freeEntries[:n-1]
	*e = entry{}
	return e
}

// allocRec takes an empty job record from the pool, keeping its entries
// capacity.
func (l *Ledger) allocRec() *jobRec {
	if len(l.freeRecs) == 0 {
		l.freeRecs = refill(l.freeRecs)
	}
	n := len(l.freeRecs)
	r := l.freeRecs[n-1]
	l.freeRecs = l.freeRecs[:n-1]
	return r
}

// allocGroup takes an empty signature group from the pool.
func (l *Ledger) allocGroup() *sigGroup {
	if n := len(l.freeGroups); n > 0 {
		g := l.freeGroups[n-1]
		l.freeGroups = l.freeGroups[:n-1]
		return g
	}
	return &sigGroup{}
}

// key resolves a name-keyed job reference to its key: the name edge's one
// lookup.
func (l *Ledger) key(ref JobRef) (JobKey, bool) {
	tr, ok := l.tasks.Lookup(ref.Task)
	return JobKey{Task: tr, Job: ref.Job}, ok
}

// lookupJob resolves a name-keyed job reference to its record.
func (l *Ledger) lookupJob(ref JobRef) (*jobRec, bool) {
	k, ok := l.key(ref)
	if !ok {
		return nil, false
	}
	rec, ok := l.jobs[k]
	return rec, ok
}

// indexJob enters a new job record into the job map and at the head of its
// task's list, growing the per-task heads to cover the ref.
func (l *Ledger) indexJob(k JobKey, rec *jobRec) {
	if n := int(k.Task) + 1 - len(l.taskHead); n > 0 {
		l.taskHead = append(l.taskHead, make([]*jobRec, n)...)
	}
	rec.key = k
	l.jobs[k] = rec
	head := l.taskHead[k.Task]
	rec.prevT, rec.nextT = nil, head
	if head != nil {
		head.prevT = rec
	}
	l.taskHead[k.Task] = rec
}

// procEntryAdd appends an active entry to its processor's index, recording
// its position for O(1) swap-removal.
func (l *Ledger) procEntryAdd(e *entry) {
	s := l.procEntries[e.proc]
	e.procPos = len(s)
	l.procEntries[e.proc] = append(s, e)
}

// procEntryRemove swap-removes an entry from its processor's index.
func (l *Ledger) procEntryRemove(e *entry) {
	s := l.procEntries[e.proc]
	last := len(s) - 1
	moved := s[last]
	s[e.procPos] = moved
	moved.procPos = e.procPos
	s[last] = nil
	l.procEntries[e.proc] = s[:last]
}

// procGroupAdd registers a group in the per-processor group index of every
// processor its signature visits.
func (l *Ledger) procGroupAdd(g *sigGroup) {
	g.procPos = g.procPos[:0]
	for _, p := range g.procs {
		s := l.procGroups[p]
		g.procPos = append(g.procPos, len(s))
		l.procGroups[p] = append(s, g)
	}
}

// procGroupRemove swap-removes a group from every per-processor index it is
// registered in, fixing the moved group's back-pointer for that processor.
func (l *Ledger) procGroupRemove(g *sigGroup) {
	for i, p := range g.procs {
		s := l.procGroups[p]
		last := len(s) - 1
		pos := g.procPos[i]
		moved := s[last]
		s[pos] = moved
		if moved != g {
			for j, mp := range moved.procs {
				if mp == p {
					moved.procPos[j] = pos
					break
				}
			}
		}
		s[last] = nil
		l.procGroups[p] = s[:last]
	}
}

// findGroup returns the registered group with signature (procs, counts)
// under hash h, or nil.
func (l *Ledger) findGroup(h uint64, procs, counts []int) *sigGroup {
	for g := l.groups[h]; g != nil; g = g.next {
		if g.sameSig(procs, counts) {
			return g
		}
	}
	return nil
}

// unlinkGroup takes a group off its hash chain.
func (l *Ledger) unlinkGroup(g *sigGroup) {
	if head := l.groups[g.hash]; head == g {
		if g.next == nil {
			delete(l.groups, g.hash)
		} else {
			l.groups[g.hash] = g.next
		}
	} else {
		for p := head; p != nil; p = p.next {
			if p.next == g {
				p.next = g.next
				break
			}
		}
	}
	g.next = nil
}

// Util returns the current synthetic utilization of the processor.
func (l *Ledger) Util(proc int) float64 {
	if proc < 0 || proc >= len(l.util) {
		return 0
	}
	return l.util[proc]
}

// Utils returns a copy of all per-processor synthetic utilizations.
func (l *Ledger) Utils() []float64 {
	return append([]float64(nil), l.util...)
}

// addUtil changes a processor's utilization and settles its caches. Batch
// mutations touching several entries use raw util adjustments plus one
// settleProc per distinct processor instead, so shared signature groups are
// refreshed once per processor rather than once per entry.
func (l *Ledger) addUtil(proc int, amount float64) {
	l.util[proc] += amount
	l.settleProc(proc)
}

// settleProc finalizes a processor after raw utilization adjustments:
// clamps tiny negative floating-point residue to zero, recaches the AUB
// term, and refreshes the cached sums of the signature groups visiting the
// processor — unless the term did not grow and nothing is violated. Then
// every fresh sum can only have fallen (floating-point sums of products are
// monotone in each term), so no counted group can have crossed 1 and the
// cached sums, now stale, are still upper bounds: the walk is skipped.
func (l *Ledger) settleProc(proc int) {
	if l.util[proc] < 0 && l.util[proc] > -1e-9 {
		l.util[proc] = 0
	}
	old := l.term[proc]
	l.term[proc] = AUBTerm(l.util[proc])
	if l.term[proc] <= old && l.violated == 0 {
		return
	}
	for _, g := range l.procGroups[proc] {
		l.refreshGroupSum(g)
	}
}

// touchProc appends a processor to a small deduplicated batch buffer.
func touchProc(procs []int, proc int) []int {
	for _, p := range procs {
		if p == proc {
			return procs
		}
	}
	return append(procs, proc)
}

// refreshGroupSum recomputes a group's cached AUB sum from the current
// per-processor terms (a fresh deterministic sum over the sorted signature,
// never an incremental adjustment, so the cache cannot drift), maintaining
// the violated counter. It is the only writer of cachedSum.
func (l *Ledger) refreshGroupSum(g *sigGroup) {
	was := g.counted > 0 && g.cachedSum > 1
	// freshSum spelled out: calling it puts this function past the inlining
	// budget, and settleProc's walk over a processor's groups is the hottest
	// loop of a simulation run.
	var s float64
	for i, p := range g.procs {
		s += float64(g.counts[i]) * l.term[p]
	}
	g.cachedSum = s
	l.flipViolated(g, was)
}

// freshSum is Σ_p count[p]·f(util[p]) over the group's sorted processors
// under the current terms: what refreshGroupSum would cache. The audit and
// the tests hold cachedSum against it.
func (l *Ledger) freshSum(g *sigGroup) float64 {
	var s float64
	for i, p := range g.procs {
		s += float64(g.counts[i]) * l.term[p]
	}
	return s
}

// flipViolated adjusts the violated counter after a group's counted or
// cachedSum changed; was is the group's violation status before the change.
func (l *Ledger) flipViolated(g *sigGroup, was bool) {
	now := g.counted > 0 && g.cachedSum > 1
	if was && !now {
		l.violated--
	} else if !was && now {
		l.violated++
	}
}

// setCounted flips a job's membership in its group's counted tally. A group
// gaining its first counted job is refreshed first: while uncounted its
// cachedSum may have gone stale above 1 (its processors shrank with nothing
// violated), and from here on it feeds the violated counter.
func (l *Ledger) setCounted(rec *jobRec, counted bool) {
	g := rec.group
	if g == nil || rec.counted == counted {
		rec.counted = counted && g != nil
		return
	}
	if counted && g.counted == 0 {
		l.refreshGroupSum(g)
	}
	was := g.counted > 0 && g.cachedSum > 1
	if counted {
		g.counted++
	} else {
		g.counted--
	}
	rec.counted = counted
	l.flipViolated(g, was)
}

// leaveGroup detaches a job from its current signature group, releasing the
// group when the last member leaves.
func (l *Ledger) leaveGroup(rec *jobRec) {
	g := rec.group
	if g == nil {
		return
	}
	l.setCounted(rec, false)
	g.members--
	if g.members == 0 {
		l.unlinkGroup(g)
		l.procGroupRemove(g)
		// Recycle: an empty group can never be violated (that requires
		// counted > 0), so dropping it does not touch the violated counter.
		g.procs = g.procs[:0]
		g.counts = g.counts[:0]
		g.counted = 0
		g.cachedSum = 0
		g.maxCount = 0
		l.freeGroups = append(l.freeGroups, g)
	}
	rec.group = nil
}

// reindex re-derives a job's signature group membership and counted status
// after any mutation of its entries. It must run after the utilization
// updates of the same mutation so a newly created group caches the final
// sums.
func (l *Ledger) reindex(rec *jobRec) {
	procs, counts := appendSignature(l.sigProcs[:0], l.sigCounts[:0], rec)
	l.sigProcs, l.sigCounts = procs, counts
	if rec.group == nil || !rec.group.sameSig(procs, counts) {
		l.leaveGroup(rec)
		if len(procs) > 0 {
			h := sigHash(procs, counts)
			g := l.findGroup(h, procs, counts)
			if g == nil {
				g = l.allocGroup()
				g.hash = h
				g.procs = append(g.procs[:0], procs...)
				g.counts = append(g.counts[:0], counts...)
				g.maxCount = float64(slices.Max(g.counts))
				g.next = l.groups[h]
				l.groups[h] = g
				l.procGroupAdd(g)
				// Fill the cache; with no counted members yet the
				// violated flip inside is a no-op.
				l.refreshGroupSum(g)
			}
			g.members++
			rec.group = g
		}
	}
	l.setCounted(rec, rec.group != nil && rec.inFlight() && rec.active())
}

// forgetJob removes a job record and all its index state. The caller has
// already settled the job's utilization contributions.
func (l *Ledger) forgetJob(rec *jobRec) {
	l.leaveGroup(rec)
	for _, e := range rec.entries {
		if e.removed == 0 {
			l.procEntryRemove(e)
		}
	}
	delete(l.jobs, rec.key)
	if rec.prevT != nil {
		rec.prevT.nextT = rec.nextT
	} else {
		l.taskHead[rec.key.Task] = rec.nextT
	}
	if rec.nextT != nil {
		rec.nextT.prevT = rec.prevT
	}
	rec.prevT, rec.nextT = nil, nil
	// Every index has dropped the record; recycle it and its entries.
	for i, e := range rec.entries {
		l.freeEntries = append(l.freeEntries, e)
		rec.entries[i] = nil
	}
	rec.entries = rec.entries[:0]
	rec.group = nil
	rec.counted = false
	l.freeRecs = append(l.freeRecs, rec)
}

// AddJob records the contributions of an admitted job placed per placement.
// When permanent is true the contributions never expire (the per-task
// admission strategy reserves a periodic task's synthetic utilization for
// its whole lifetime); otherwise expiry is the job's absolute deadline.
// Adding an already-present job is an error: the admission controller must
// not double-admit. A task name the ledger's table does not know is bound to
// a fresh ref.
func (l *Ledger) AddJob(ref JobRef, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) error {
	return l.addJob(JobKey{Task: l.tasks.intern(ref.Task, nil), Job: ref.Job}, kind, placement, permanent, expiry)
}

// addJob is AddJob by key.
func (l *Ledger) addJob(k JobKey, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) error {
	if _, ok := l.jobs[k]; ok {
		return fmt.Errorf("sched: job %s already in ledger", l.tasks.jobRef(k))
	}
	if err := l.checkPlacement(k, placement); err != nil {
		return err
	}
	rec := l.allocRec()
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for _, p := range placement {
		e := l.allocEntry()
		e.key = k
		e.stage = p.Stage
		e.proc = p.Proc
		e.amount = p.Util
		e.kind = kind
		e.permanent = permanent
		e.expiry = expiry
		rec.entries = append(rec.entries, e)
		l.procEntryAdd(e)
		l.util[p.Proc] += p.Util
		touched = touchProc(touched, p.Proc)
	}
	for _, p := range touched {
		l.settleProc(p)
	}
	l.indexJob(k, rec)
	l.reindex(rec)
	return nil
}

// checkPlacement is AddJob's argument check: every stage on a known
// processor, no negative utilization.
func (l *Ledger) checkPlacement(k JobKey, placement []PlacedStage) error {
	for _, p := range placement {
		if p.Proc < 0 || p.Proc >= len(l.util) {
			return fmt.Errorf("sched: job %s stage %d placed on unknown processor %d", l.tasks.jobRef(k), p.Stage, p.Proc)
		}
		if p.Util < 0 {
			return fmt.Errorf("sched: job %s stage %d has negative utilization %g", l.tasks.jobRef(k), p.Stage, p.Util)
		}
	}
	return nil
}

// ExpireJob removes all remaining contributions of the job because its
// absolute deadline passed, and forgets the job. Permanent entries are not
// removed by expiry (per-task reservations outlive individual deadlines);
// jobs made only of permanent entries are left in place. It returns the
// number of contributions removed.
func (l *Ledger) ExpireJob(ref JobRef) int {
	k, ok := l.key(ref)
	if !ok {
		return 0
	}
	return l.expireKey(k)
}

// expireKey is ExpireJob by key.
//
//rtmw:noalloc
func (l *Ledger) expireKey(k JobKey) int {
	rec, ok := l.jobs[k]
	if !ok {
		return 0
	}
	n := 0
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	permanentOnly := true
	for _, e := range rec.entries {
		if e.permanent {
			continue
		}
		permanentOnly = false
		if e.removed == 0 {
			e.removed = RemovedExpiry
			l.procEntryRemove(e)
			l.util[e.proc] -= e.amount
			touched = touchProc(touched, e.proc)
			n++
		}
	}
	for _, p := range touched {
		l.settleProc(p)
	}
	if !permanentOnly {
		l.forgetJob(rec)
	}
	return n
}

// WithdrawJob removes every remaining contribution of one job — including
// permanent per-task reservation entries, which ExpireJob deliberately skips
// — and forgets the job. It is the reconfiguration rebase primitive: when
// the admission strategy moves away from per-task control, each task's
// permanent reservation is withdrawn so the ledger reflects only per-job
// contributions under the new strategy. It returns the number of
// contributions removed.
func (l *Ledger) WithdrawJob(ref JobRef) int {
	k, ok := l.key(ref)
	if !ok {
		return 0
	}
	return l.withdrawKey(k)
}

// withdrawKey is WithdrawJob by key.
func (l *Ledger) withdrawKey(k JobKey) int {
	rec, ok := l.jobs[k]
	if !ok {
		return 0
	}
	return l.withdrawRec(rec)
}

// withdrawRec is WithdrawJob after the job lookup.
func (l *Ledger) withdrawRec(rec *jobRec) int {
	n := 0
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for _, e := range rec.entries {
		if e.removed == 0 {
			e.removed = RemovedWithdrawal
			l.procEntryRemove(e)
			l.util[e.proc] -= e.amount
			touched = touchProc(touched, e.proc)
			n++
		}
	}
	for _, p := range touched {
		l.settleProc(p)
	}
	l.forgetJob(rec)
	return n
}

// RemoveTask withdraws every job of the task, a permanent per-task
// reservation included (the task left the system). It returns the number of
// contributions removed.
func (l *Ledger) RemoveTask(task string) int {
	tr, ok := l.tasks.Lookup(task)
	if !ok {
		return 0
	}
	return l.removeTaskRef(tr)
}

// removeTaskRef is RemoveTask by ref.
func (l *Ledger) removeTaskRef(tr TaskRef) int {
	if int(tr) >= len(l.taskHead) {
		return 0
	}
	// Withdraw in job order, not list order: the per-processor subtraction
	// sequence determines the exact floating-point residue, and a
	// deterministic order keeps independently driven ledgers (replay
	// harnesses, golden runs) bit-identical.
	var recs []*jobRec
	for rec := l.taskHead[tr]; rec != nil; rec = rec.nextT {
		recs = append(recs, rec)
	}
	slices.SortFunc(recs, func(a, b *jobRec) int { return cmp.Compare(a.key.Job, b.key.Job) })
	n := 0
	for _, rec := range recs {
		n += l.withdrawRec(rec)
	}
	return n
}

// MarkComplete records that the subjob of the given stage finished
// executing, making its contribution eligible for idle resetting. Unknown
// references are ignored (the job may already have expired).
func (l *Ledger) MarkComplete(ref JobRef, stage int) {
	rec, ok := l.lookupJob(ref)
	if !ok {
		return
	}
	l.markCompleteRec(rec, stage)
}

// markCompleteRec is MarkComplete after the job lookup.
func (l *Ledger) markCompleteRec(rec *jobRec, stage int) {
	changed := false
	for _, e := range rec.entries {
		if e.stage == stage && !e.completed {
			e.completed = true
			changed = true
		}
	}
	if changed {
		// The active set — and with it the signature group — is unchanged,
		// but the job may have left the in-flight set, which drops it from
		// the admission test.
		l.setCounted(rec, rec.group != nil && rec.inFlight() && rec.active())
	}
}

// ResetEntry applies the idle resetting rule to a single reported
// contribution: if the entry is known, completed, and still active, its
// contribution is removed. It returns true if utilization was released.
// Permanent (per-task reserved) entries are never reset: the per-task
// admission strategy must keep the reservation, which is exactly why the
// AC-per-task/IR-per-job combination is invalid.
func (l *Ledger) ResetEntry(r EntryRef) bool {
	rec, ok := l.lookupJob(r.Ref)
	if !ok {
		return false
	}
	return l.resetEntryRec(rec, r.Stage, r.Proc)
}

// resetEntryRec is ResetEntry after the job lookup.
func (l *Ledger) resetEntryRec(rec *jobRec, stage, proc int) bool {
	for _, e := range rec.entries {
		if e.stage != stage || e.proc != proc {
			continue
		}
		if e.permanent || !e.completed || e.removed != 0 {
			return false
		}
		e.removed = RemovedIdleReset
		l.procEntryRemove(e)
		l.addUtil(e.proc, -e.amount)
		l.reindex(rec)
		return true
	}
	return false
}

// ResetReported applies one idle-resetting report entry: MarkComplete
// followed by ResetEntry, with a single job lookup. It is behaviorally
// identical to calling the two methods in that order — the admission
// controller's hot path for "Idle Resetting" events uses it, while the two
// standalone methods remain the granular API (and the differential property
// test's ground truth).
func (l *Ledger) ResetReported(r EntryRef) bool {
	k, ok := l.key(r.Ref)
	if !ok {
		return false
	}
	return l.resetReportedKey(Entry[JobKey]{Ref: k, Stage: r.Stage, Proc: r.Proc})
}

// resetReportedKey is ResetReported by key.
//
//rtmw:noalloc
func (l *Ledger) resetReportedKey(r Entry[JobKey]) bool {
	rec, ok := l.jobs[r.Ref]
	if !ok {
		return false
	}
	l.markCompleteRec(rec, r.Stage)
	return l.resetEntryRec(rec, r.Stage, r.Proc)
}

// CompletedOn returns the completed, still-active contributions on the given
// processor, optionally restricted to aperiodic tasks. Idle resetter
// components use it (in the simulation binding) to build their report when
// the processor goes idle. It reads the per-processor entry index, so the
// cost scales with the processor's own entries rather than the whole job
// map. Results are ordered deterministically.
func (l *Ledger) CompletedOn(proc int, includePeriodic bool) []EntryRef {
	if proc < 0 || proc >= len(l.procEntries) {
		return nil
	}
	var out []EntryRef
	for _, e := range l.procEntries[proc] {
		if !e.completed || e.removed != 0 || e.permanent {
			continue
		}
		if !includePeriodic && e.kind == Periodic {
			continue
		}
		out = append(out, EntryRef{Ref: l.tasks.jobRef(e.key), Stage: e.stage, Proc: e.proc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ref.Task != out[j].Ref.Task {
			return out[i].Ref.Task < out[j].Ref.Task
		}
		if out[i].Ref.Job != out[j].Ref.Job {
			return out[i].Ref.Job < out[j].Ref.Job
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// Relocate moves the active contributions of a job to a new placement (used
// by AC-per-task with LB-per-job, where an admitted task's reservation
// follows the jobs). Completed/removed entries are left as-is.
func (l *Ledger) Relocate(ref JobRef, placement []PlacedStage) error {
	rec, ok := l.lookupJob(ref)
	if !ok {
		return fmt.Errorf("sched: relocate: job %s not in ledger", ref)
	}
	return l.relocateRec(rec, placement)
}

// relocateKey is Relocate by key.
func (l *Ledger) relocateKey(k JobKey, placement []PlacedStage) error {
	rec, ok := l.jobs[k]
	if !ok {
		return fmt.Errorf("sched: relocate: job %s not in ledger", l.tasks.jobRef(k))
	}
	return l.relocateRec(rec, placement)
}

// relocateRec is Relocate after the job lookup. A stage placed twice takes
// its last placement.
func (l *Ledger) relocateRec(rec *jobRec, placement []PlacedStage) error {
	for _, p := range placement {
		if p.Proc < 0 || p.Proc >= len(l.util) {
			return fmt.Errorf("sched: relocate: job %s stage %d on unknown processor %d", l.tasks.jobRef(rec.key), p.Stage, p.Proc)
		}
	}
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for _, e := range rec.entries {
		if e.removed != 0 {
			continue
		}
		at := -1
		for i, p := range placement {
			if p.Stage == e.stage {
				at = i
			}
		}
		if at < 0 || e.proc == placement[at].Proc {
			continue
		}
		p := placement[at]
		l.procEntryRemove(e)
		l.util[e.proc] -= e.amount
		touched = touchProc(touched, e.proc)
		e.proc = p.Proc
		e.amount = p.Util
		l.procEntryAdd(e)
		l.util[e.proc] += p.Util
		touched = touchProc(touched, e.proc)
	}
	if len(touched) > 0 {
		for _, p := range touched {
			l.settleProc(p)
		}
		l.reindex(rec)
	}
	return nil
}

// Admissible evaluates the AUB admission test for a candidate job with the
// given placement: with the candidate's contributions tentatively added,
// condition (1) must continue to hold for the candidate and for every
// in-flight job in the current task set. It leaves the ledger's accounting
// as it found it; it does write its scratch and the scan stamps, so like
// every other method it needs the caller's serialization.
//
// The evaluation is indexed: jobs visiting none of the candidate's
// processors keep their cached (already ≤ 1, else the violated counter
// short-circuits) sums untouched, and the perturbed jobs are looked at once
// per distinct processor-visit signature instead of once per job — passed on
// the cached bound where it leaves room for the candidate, summed afresh
// otherwise — so the cost is linear in the groups indexed under the
// perturbed processors. The decision is equivalent to the full-scan
// referenceAdmissible.
//
//rtmw:noalloc
func (l *Ledger) Admissible(placement []PlacedStage) bool {
	for _, p := range placement {
		if p.Util < 0 {
			// Negative candidates void the monotonicity the fast path
			// relies on; AddJob rejects them, so the test does too.
			return false
		}
	}
	if l.candDelta == nil {
		//rtmw:ignore noalloc one-time lazy scratch, amortized to zero over the ledger's life
		l.candDelta = make([]float64, len(l.util))
		//rtmw:ignore noalloc one-time lazy scratch, amortized to zero over the ledger's life
		l.candTerm = make([]float64, len(l.util))
	}
	// Dense candidate deltas, accumulated in placement order so the sums
	// are bit-identical to a per-processor candidateDelta walk, plus the
	// tentative AUB term of each perturbed processor, computed once per
	// test instead of once per signature-group visit.
	delta, tent := l.candDelta, l.candTerm
	var procsBuf [8]int
	touched := procsBuf[:0]
	for _, p := range placement {
		delta[p.Proc] += p.Util
		touched = touchProc(touched, p.Proc)
	}
	for _, p := range touched {
		tent[p] = AUBTerm(l.util[p] + delta[p])
	}
	ok := l.admitScan(placement, delta, tent, touched)
	for _, p := range touched {
		delta[p] = 0
		tent[p] = 0
	}
	return ok
}

// admitScan is Admissible after the scratch is primed; split out so every
// early return shares the caller's scratch cleanup.
//
//rtmw:noalloc
func (l *Ledger) admitScan(placement []PlacedStage, delta, tent []float64, touched []int) bool {
	// Candidate's own condition under the tentative utilizations.
	var sum float64
	for _, p := range placement {
		sum += tent[p.Proc]
	}
	if sum > 1 {
		return false
	}

	// Some in-flight job already violates its condition without the
	// candidate; adding utilization cannot repair it.
	if l.violated > 0 {
		return false
	}

	// Look only at the signature groups that visit a perturbed processor;
	// every other in-flight job's sum is at most its cached sum, which the
	// violated counter already vouches for. A perturbed group's sum grows by
	// Σ count[q]·(tent[q] − term[q]) ≤ maxCount·grow, so one whose cached
	// upper bound leaves room for that (and boundMargin for rounding) cannot
	// exceed 1 and is passed without summing. Every other group is summed
	// afresh, so each rejection — and each acceptance the bound cannot give —
	// comes from a fresh sum; unperturbed processors use the cached term
	// (term[p] = AUBTerm(util[p]) by invariant), so that sum is bit-identical
	// to recomputing every term. An Inf or NaN bound (a processor at or past
	// full utilization) fails the comparison and falls through to the sum.
	var grow float64
	for _, pp := range touched {
		grow += tent[pp] - l.term[pp]
	}
	l.scan++
	for _, pp := range touched {
		if delta[pp] == 0 {
			continue
		}
		for _, g := range l.procGroups[pp] {
			if g.counted == 0 || g.scanned == l.scan {
				continue
			}
			if g.cachedSum+g.maxCount*grow <= 1-boundMargin {
				continue
			}
			g.scanned = l.scan
			var s float64
			for qi, q := range g.procs {
				t := l.term[q]
				if delta[q] != 0 {
					t = tent[q]
				}
				s += float64(g.counts[qi]) * t
				if s > 1 {
					return false
				}
			}
		}
	}
	return true
}

// referenceAdmissible is the paper-literal full-scan admission test: every
// in-flight job's condition is recomputed from its entry records. It is the
// behavioral reference for the indexed Admissible, kept for CheckInvariants
// and the differential property tests.
func (l *Ledger) referenceAdmissible(placement []PlacedStage) bool {
	delta := make(map[int]float64, len(placement))
	for _, p := range placement {
		delta[p.Proc] += p.Util
	}
	utilAt := func(proc int) float64 {
		return l.util[proc] + delta[proc]
	}

	// Candidate's own condition.
	var sum float64
	for _, p := range placement {
		sum += AUBTerm(utilAt(p.Proc))
	}
	if sum > 1 {
		return false
	}

	// Condition for every in-flight admitted job, over the processors its
	// active contributions visit. Fully completed jobs cannot miss their
	// deadlines anymore and are skipped.
	for _, rec := range l.jobs {
		if !rec.inFlight() || !rec.active() {
			continue
		}
		var s float64
		for _, e := range rec.entries {
			if e.removed != 0 {
				continue
			}
			s += AUBTerm(utilAt(e.proc))
			if s > 1 {
				return false
			}
		}
	}
	return true
}

// ActiveJobs returns the references of jobs that still hold at least one
// active contribution, in deterministic order. Intended for tests and
// instrumentation.
func (l *Ledger) ActiveJobs() []JobRef {
	var out []JobRef
	for k, rec := range l.jobs {
		if rec.active() {
			out = append(out, l.tasks.jobRef(k))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].Job < out[j].Job
	})
	return out
}

// CheckInvariants recomputes per-processor utilization from entry records
// and verifies it matches the running sums within tolerance, that no
// utilization is negative, and that every index (per-processor entries,
// task→jobs, signature groups with their cached upper-bound sums and the
// violated counter, recounted from fresh sums) agrees with the ground-truth
// records. It also cross-checks the indexed Admissible against
// referenceAdmissible on the empty candidate. Property tests call it after
// random operation sequences.
func (l *Ledger) CheckInvariants() error {
	recomputed := make([]float64, len(l.util))
	activeEntries := 0
	for _, rec := range l.jobs {
		for _, e := range rec.entries {
			if e.removed == 0 {
				recomputed[e.proc] += e.amount
				activeEntries++
				if pe := l.procEntries[e.proc]; e.procPos < 0 || e.procPos >= len(pe) || pe[e.procPos] != e {
					return fmt.Errorf("sched: active entry %s/%d missing from processor %d index", l.tasks.jobRef(e.key), e.stage, e.proc)
				}
			}
		}
	}
	for p := range l.util {
		if l.util[p] < 0 {
			return fmt.Errorf("sched: processor %d has negative utilization %g", p, l.util[p])
		}
		if diff := math.Abs(l.util[p] - recomputed[p]); diff > 1e-6 {
			return fmt.Errorf("sched: processor %d utilization drift: running %g vs recomputed %g", p, l.util[p], recomputed[p])
		}
		if l.term[p] != AUBTerm(l.util[p]) {
			return fmt.Errorf("sched: processor %d has stale AUB term cache", p)
		}
	}
	indexed := 0
	for p := range l.procEntries {
		indexed += len(l.procEntries[p])
		for _, e := range l.procEntries[p] {
			if e.removed != 0 {
				return fmt.Errorf("sched: removed entry %s/%d still in processor %d index", l.tasks.jobRef(e.key), e.stage, p)
			}
			if e.proc != p {
				return fmt.Errorf("sched: entry %s/%d indexed under processor %d but placed on %d", l.tasks.jobRef(e.key), e.stage, p, e.proc)
			}
		}
	}
	if indexed != activeEntries {
		return fmt.Errorf("sched: processor index holds %d entries, records hold %d", indexed, activeEntries)
	}

	// Every task's list: back links consistent, each record filed under its
	// own key, and together exactly the job map. The bound ends the walk on a
	// cycle whatever the links say.
	taskIndexed := 0
	for tr, head := range l.taskHead {
		var prev *jobRec
		for rec := head; rec != nil; prev, rec = rec, rec.nextT {
			name := l.tasks.Name(TaskRef(tr))
			if taskIndexed++; taskIndexed > len(l.jobs) {
				return fmt.Errorf("sched: task lists hold more than the job map's %d jobs (cycle or stale record in task %s)", len(l.jobs), name)
			}
			if rec.prevT != prev {
				return fmt.Errorf("sched: task list of %s: job %d has a wrong back link", name, rec.key.Job)
			}
			if rec.key.Task != TaskRef(tr) || l.jobs[rec.key] != rec {
				return fmt.Errorf("sched: task list entry %s/%d does not match job map", name, rec.key.Job)
			}
		}
	}
	if taskIndexed != len(l.jobs) {
		return fmt.Errorf("sched: task lists hold %d jobs, job map holds %d", taskIndexed, len(l.jobs))
	}

	members := make(map[*sigGroup]int)
	counted := make(map[*sigGroup]int)
	for k, rec := range l.jobs {
		procs, counts := appendSignature(nil, nil, rec)
		switch {
		case len(procs) == 0 && rec.group != nil:
			return fmt.Errorf("sched: inactive job %s still grouped", l.tasks.jobRef(k))
		case len(procs) > 0 && rec.group == nil:
			return fmt.Errorf("sched: active job %s has no signature group", l.tasks.jobRef(k))
		case rec.group != nil && !rec.group.sameSig(procs, counts):
			return fmt.Errorf("sched: job %s grouped under %v/%v, signature is %q",
				l.tasks.jobRef(k), rec.group.procs, rec.group.counts, sigString(procs, counts))
		}
		if rec.group != nil {
			members[rec.group]++
			want := rec.inFlight() && rec.active()
			if rec.counted != want {
				return fmt.Errorf("sched: job %s counted=%v, want %v", l.tasks.jobRef(k), rec.counted, want)
			}
			if rec.counted {
				counted[rec.group]++
			}
		}
	}
	wantViolated, registered := 0, 0
	for h, head := range l.groups {
		for g := head; g != nil; g = g.next {
			// Every registered group has a member job, so chains holding more
			// groups than the job map has jobs have a cycle.
			if registered++; registered > len(l.jobs) {
				return fmt.Errorf("sched: group chains hold more than the job map's %d jobs (cycle under hash %#x)", len(l.jobs), h)
			}
			if err := l.checkGroup(h, g, members[g], counted[g]); err != nil {
				return err
			}
			if g.counted > 0 && l.freshSum(g) > 1 {
				wantViolated++
			}
		}
	}
	if len(members) != registered {
		return fmt.Errorf("sched: %d groups referenced by jobs, %d registered", len(members), registered)
	}
	for p := range l.procGroups {
		for _, g := range l.procGroups[p] {
			if l.findGroup(g.hash, g.procs, g.counts) != g {
				return fmt.Errorf("sched: processor %d group index holds unregistered group %q", p, sigString(g.procs, g.counts))
			}
		}
	}
	if l.violated != wantViolated {
		return fmt.Errorf("sched: violated counter %d, recomputed %d", l.violated, wantViolated)
	}

	if fast, ref := l.Admissible(nil), l.referenceAdmissible(nil); fast != ref {
		// The indexed path sums count[p]·f(u_p) over sorted processors, the
		// reference sums f(u_p) once per entry in record order; at a job sum
		// within rounding distance of the bound the two can legitimately
		// land on opposite sides, so only flag disagreements away from it.
		if !l.nearAUBBoundary(1e-9) {
			return fmt.Errorf("sched: indexed Admissible(nil)=%v disagrees with reference %v", fast, ref)
		}
	}
	return nil
}

// checkGroup audits one registered group, found on the chain of hash h,
// against the member and counted tallies the job records give it.
func (l *Ledger) checkGroup(h uint64, g *sigGroup, members, counted int) error {
	if len(g.counts) != len(g.procs) {
		return fmt.Errorf("sched: group %v has %d counts for %d processors", g.procs, len(g.counts), len(g.procs))
	}
	sig := sigString(g.procs, g.counts)
	if got := sigHash(g.procs, g.counts); g.hash != h || got != h {
		return fmt.Errorf("sched: group %q filed under hash %#x, records %#x, hashes to %#x", sig, h, g.hash, got)
	}
	if l.findGroup(h, g.procs, g.counts) != g {
		return fmt.Errorf("sched: signature %q registered twice", sig)
	}
	if g.members != members {
		return fmt.Errorf("sched: group %q has %d members, records show %d", sig, g.members, members)
	}
	if g.counted != counted {
		return fmt.Errorf("sched: group %q counts %d in-flight jobs, records show %d", sig, g.counted, counted)
	}
	s := l.freshSum(g)
	// cachedSum is an upper bound on the fresh sum, and for a counted
	// group on the same side of 1 (see sigGroup.cachedSum).
	if s > g.cachedSum+1e-9 {
		return fmt.Errorf("sched: group %q cached sum %g below the fresh sum %g", sig, g.cachedSum, s)
	}
	if g.counted > 0 && (g.cachedSum > 1) != (s > 1) {
		return fmt.Errorf("sched: counted group %q cached sum %g and fresh sum %g on opposite sides of 1", sig, g.cachedSum, s)
	}
	if want := float64(slices.Max(g.counts)); g.maxCount != want {
		return fmt.Errorf("sched: group %q max count %g, signature has %g", sig, g.maxCount, want)
	}
	for i, p := range g.procs {
		pg := l.procGroups[p]
		if i >= len(g.procPos) || g.procPos[i] < 0 || g.procPos[i] >= len(pg) || pg[g.procPos[i]] != g {
			return fmt.Errorf("sched: group %q missing from processor %d group index", sig, p)
		}
	}
	return nil
}

// nearAUBBoundary reports whether any in-flight job's AUB sum lies within
// eps of the admission bound 1, where floating-point summation order can
// flip the decision.
func (l *Ledger) nearAUBBoundary(eps float64) bool {
	for _, rec := range l.jobs {
		if !rec.inFlight() || !rec.active() {
			continue
		}
		var s float64
		for _, e := range rec.entries {
			if e.removed == 0 {
				s += AUBTerm(l.util[e.proc])
			}
		}
		if math.Abs(s-1) <= eps {
			return true
		}
	}
	return false
}
