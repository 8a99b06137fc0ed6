package sched

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"
)

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
	stage     int
	proc      int
	amount    int64 // C/D in ledger units (toUnits)
	kind      TaskKind
	permanent bool
	expiry    time.Duration // absolute virtual deadline; 0 when permanent
	completed bool
	removed   RemovalReason // 0 while active
}

// jobRec groups the entries of one admitted job, held by value; the slice
// keeps its capacity when the record is recycled.
type jobRec struct {
	entries []entry
	// key names the job, and prevT/nextT link it into its task's list
	// (Ledger.tasks), the ledger's one index of jobs: it is threaded through
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
	for i := range j.entries {
		if j.entries[i].removed == 0 {
			return true
		}
	}
	return false
}

// inFlight reports whether the job still has at least one uncompleted stage.
// Only in-flight jobs can still miss their deadlines, so the admission test
// is evaluated over in-flight jobs plus the candidate.
func (j *jobRec) inFlight() bool {
	for i := range j.entries {
		if !j.entries[i].completed {
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
	for ei := range j.entries {
		e := &j.entries[ei]
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
	// cachedSum is Σ_p count[p]·term[p] in ledger units, exactly: every
	// change δ of a term on one of the group's processors adds count·δ to it
	// (setTerm), so it always equals the fresh sum.
	cachedSum int64
	// maxCount is the signature's largest per-processor entry count: a
	// candidate raises the group's sum by at most maxCount times the total
	// growth of the perturbed terms.
	maxCount int64

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
	// audit is the Ledger.audits value of the CheckInvariants run that last
	// tallied the group's members and counted jobs in auditMembers and
	// auditCounted.
	audit                      uint64
	auditMembers, auditCounted int
}

// sameSig reports whether the group's signature is exactly (procs, counts).
func (g *sigGroup) sameSig(procs, counts []int) bool {
	return slices.Equal(g.procs, procs) && slices.Equal(g.counts, counts)
}

// unitShift fixes the ledger's unit of utilization at 2^-unitShift. Every
// C/D enters as a whole number of units, so per-processor utilization is an
// exact integer sum: adding and withdrawing the same contributions in any
// order leaves the same count, and a drained processor reads exactly zero.
// One unit is about 9.1e-13, far below any C/D a task set produces.
const unitShift = 40

// unitsPerOne is the count that stands for utilization 1. Scaling by it is
// exact in float64, so rounding happens only in toUnits's Ceil.
const unitsPerOne = 1 << unitShift

// toUnits converts a stage's C/D to ledger units, rounded up so the ledger
// never holds less utilization than the stage brings and the admission test
// stays conservative. Only [0, 1] converts: NaN, ±Inf, negative values and
// anything above 1 report false. A stage at 1 has an infinite AUB term and is
// never admitted.
//
//rtmw:noalloc
func toUnits(u float64) (int64, bool) {
	if !(u >= 0 && u <= 1) {
		return 0, false
	}
	return int64(math.Ceil(u * unitsPerOne)), true
}

// fromUnits is the utilization a count of ledger units stands for.
//
//rtmw:noalloc
func fromUnits(n int64) float64 { return float64(n) / unitsPerOne }

// termCap is the largest AUB term the ledger holds: one unit above 1. A term
// past 1 breaks every condition it enters on its own, so all such terms can
// share one value without changing a decision.
const termCap = unitsPerOne + 1

// termUnits is the AUB term of condition (1), f(u) = u(1 − u/2)/(1 − u)
// (after Abdelzaher et al.), of a processor holding n ledger units, in
// ledger units and rounded up: the exact ceiling of
// n(2^41 − n) / (2(2^40 − n)), capped at termCap (and termCap from n = 2^40
// on, where f is infinite). The exact ceiling of an increasing function is
// itself nondecreasing, so a processor that gains utilization never loses
// term.
//
//rtmw:noalloc
func termUnits(n int64) int64 {
	if n <= 0 {
		return 0
	}
	if n >= unitsPerOne {
		return termCap
	}
	hi, lo := bits.Mul64(uint64(n), uint64(2*unitsPerOne-n))
	d := uint64(2 * (unitsPerOne - n))
	if hi >= d { // the quotient needs more than 64 bits
		return termCap
	}
	q, r := bits.Div64(hi, lo, d)
	if q >= termCap {
		return termCap
	}
	if r != 0 {
		q++
	}
	return int64(q)
}

// Ledger is the synthetic-utilization ledger maintained by the admission
// controller. It tracks, per processor, the sum of C/D contributions of the
// current task set, with per-entry state so the per-task/per-job admission
// strategies and the three idle-resetting strategies are all policies over
// the same records.
//
// Internally the ledger is fully indexed so the admission hot path never
// scans the jobs: each task's list of jobs finds a job by its key and serves
// RemoveTask, and jobs are aggregated into processor-visit signature groups
// with cached AUB sums so Admissible only re-evaluates the groups whose
// processors a candidate perturbs.
//
// Jobs are keyed by JobKey, the task's ref from the binding that hands refs
// out; the ledger never sees a task name, except through the two probes of
// the frozen benchmark (TestAndAdd, WithdrawJob).
//
// Every exported method is one critical section under the ledger's mutex,
// so one ledger serves any number of goroutines: the live AC's decisions,
// expiry timers and idle reports, and the single-threaded simulation alike.
// TestAndAddKey makes the admission test and the commit one section, which
// is what the paper's single centralized AC needs.
type Ledger struct {
	mu   sync.Mutex
	util []int64 // per processor, in ledger units (toUnits)
	term []int64 // term[p] = termUnits(util[p]), maintained with util
	// names binds the task names of TestAndAdd and WithdrawJob to refs of
	// this ledger's own; nil until the first.
	names map[string]TaskRef

	tasks      []jobList            // per task ref, its jobs; grown on demand
	njobs      int                  // jobs in the task lists
	groups     map[uint64]*sigGroup // sigHash → groups with that hash, chained through sigGroup.next
	procGroups [][]groupRef         // groups whose signature visits proc (swap-remove via sigGroup.procPos)
	// violated counts groups with counted > 0 whose sum already exceeds 1:
	// while any exist, no candidate is admissible (adding utilization can
	// only grow a group's sum).
	violated int

	// Record pools: jobRec and sigGroup records cycle through free lists
	// instead of the heap, so steady-state admission traffic (admit →
	// reset/expire → forget) allocates nothing once the pools warm up, and
	// the jobRec pool warms up poolChunk records at a time. Recycling happens
	// only in forgetJob/leaveGroup, after every index has dropped its pointer.
	freeRecs   []*jobRec
	freeGroups []*sigGroup

	// Signature scratch for reindex and the audits: parallel (proc, count)
	// arrays reused across calls, so deriving a job's signature allocates
	// nothing.
	sigProcs  []int
	sigCounts []int

	// candDelta/candTerm are Admissible's dense scratch: the candidate's
	// per-processor utilization delta in units and the tentative AUB terms of
	// the perturbed processors (candProcs), computed once per test instead of
	// once per signature-group visit. They hold the last test's values until
	// the next prime, which zeroes candDelta for the processors it names.
	candDelta []int64
	candTerm  []int64
	candProcs []int
	candGrow  int64 // Σ (candTerm[p] − term[p]) over candProcs
	// scan numbers the admission tests; see sigGroup.scanned. Starting at
	// zero and incrementing before use, it never equals the stamp of a fresh
	// or recycled group by accident: stamps only ever hold earlier values.
	scan uint64
	// audits numbers the CheckInvariants runs; see sigGroup.audit.
	audits uint64

	// work receives the ledger's work counts (CountWork).
	work *Work
}

// Work counts a ledger's work. The counts depend only on the operations the
// ledger was given, never on the host, so a change that alters them changed
// the work done. The ledger adds to them under its lock.
type Work struct {
	// GroupsMet counts the entries admission scans met in the group indexes
	// of the processors a candidate perturbs; GroupsPassed the groups among
	// them passed by the maxCount·grow skip, and GroupsSummed those summed
	// past it. The rest were uncounted or already summed by the same scan.
	GroupsMet    int64
	GroupsPassed int64
	GroupsSummed int64
	// SumMovesUp and SumMovesDown count the group sums setTerm moved, on
	// processors whose AUB term rose and fell.
	SumMovesUp   int64
	SumMovesDown int64
	// RecsAllocated and GroupsAllocated count the job records and signature
	// groups taken from the heap rather than from the ledger's pools.
	RecsAllocated   int64
	GroupsAllocated int64
}

// groupRef is one entry of a processor's group index: the group and its
// signature's count on that processor, so a change of the processor's term
// moves the group's sum without searching its signature.
type groupRef struct {
	g *sigGroup
	c int64
}

// jobList is one task's jobs, linked through jobRec.prevT/nextT from the
// highest job number (head) down to the lowest (tail). Both bindings admit a
// task's jobs in job-number order, so a new job goes in at the head and one
// expiring goes from the tail, each in one step.
type jobList struct {
	head, tail *jobRec
}

// NewLedger returns an empty ledger over numProcs processors numbered
// 0..numProcs-1.
func NewLedger(numProcs int) *Ledger {
	return &Ledger{
		util:       make([]int64, numProcs),
		term:       make([]int64, numProcs),
		groups:     make(map[uint64]*sigGroup),
		procGroups: make([][]groupRef, numProcs),
		work:       new(Work),
	}
}

// CountWork makes the ledger add its work counts to w from now on; the
// counts so far stay where they were. Read w only while no operation runs
// on the ledger.
func (l *Ledger) CountWork(w *Work) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.work = w
}

// NewShardedLedger is NewLedger; shards is ignored. The frozen benchmark
// probe benchmark/probe_sched.go calls it (ROADMAP item 1(a) renames it).
func NewShardedLedger(numProcs, shards int) *Ledger { return NewLedger(numProcs) }

// NumProcs returns the number of processors the ledger tracks.
func (l *Ledger) NumProcs() int { return len(l.util) }

// poolChunk is how many records an empty jobRec pool allocates at once: a
// run in which most jobs are a task's first pays the allocator once per 64
// records instead of once per record.
const poolChunk = 64

// allocRec takes an empty job record from the pool, keeping its entries
// capacity; an empty pool is restocked with poolChunk records cut from one
// allocation.
func (l *Ledger) allocRec() *jobRec {
	if len(l.freeRecs) == 0 {
		chunk := make([]jobRec, poolChunk)
		l.work.RecsAllocated += poolChunk
		l.freeRecs = slices.Grow(l.freeRecs, poolChunk)
		for i := range chunk {
			l.freeRecs = append(l.freeRecs, &chunk[i])
		}
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
	l.work.GroupsAllocated++
	return &sigGroup{}
}

// findJob returns the record of job k, or nil, walking its task's list from
// the end nearer k's job number.
func (l *Ledger) findJob(k JobKey) *jobRec {
	if k.Task < 0 || int(k.Task) >= len(l.tasks) {
		return nil
	}
	t := l.tasks[k.Task]
	if t.head == nil || k.Job > t.head.key.Job || k.Job < t.tail.key.Job {
		return nil
	}
	// Unsigned differences cannot overflow: tail ≤ k ≤ head, so either walk
	// stops at the far end at the latest.
	rec := t.head
	if uint64(k.Job)-uint64(t.tail.key.Job) < uint64(t.head.key.Job)-uint64(k.Job) {
		for rec = t.tail; rec.key.Job < k.Job; rec = rec.prevT {
		}
	} else {
		for ; rec.key.Job > k.Job; rec = rec.nextT {
		}
	}
	if rec.key.Job != k.Job {
		return nil
	}
	return rec
}

// fileJob enters a new job record into its task's list, in job-number
// order, growing the per-task lists to cover the ref.
func (l *Ledger) fileJob(k JobKey, rec *jobRec) {
	if n := int(k.Task) + 1 - len(l.tasks); n > 0 {
		l.tasks = append(l.tasks, make([]jobList, n)...)
	}
	rec.key = k
	t := &l.tasks[k.Task]
	next := t.head // the record rec goes before
	for next != nil && next.key.Job > k.Job {
		next = next.nextT
	}
	prev := t.tail
	if next != nil {
		prev = next.prevT
	}
	rec.prevT, rec.nextT = prev, next
	if prev != nil {
		prev.nextT = rec
	} else {
		t.head = rec
	}
	if next != nil {
		next.prevT = rec
	} else {
		t.tail = rec
	}
	l.njobs++
}

// procGroupAdd registers a group in the per-processor group index of every
// processor its signature visits.
func (l *Ledger) procGroupAdd(g *sigGroup) {
	g.procPos = g.procPos[:0]
	for i, p := range g.procs {
		s := l.procGroups[p]
		g.procPos = append(g.procPos, len(s))
		l.procGroups[p] = append(s, groupRef{g, int64(g.counts[i])})
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
		if moved.g != g {
			for j, mp := range moved.g.procs {
				if mp == p {
					moved.g.procPos[j] = pos
					break
				}
			}
		}
		s[last] = groupRef{}
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
	l.mu.Lock()
	defer l.mu.Unlock()
	return fromUnits(l.util[proc])
}

// Utils returns a copy of all per-processor synthetic utilizations.
func (l *Ledger) Utils() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]float64, len(l.util))
	for p, n := range l.util {
		out[p] = fromUnits(n)
	}
	return out
}

// addUtil changes a processor's utilization and settles its caches. Batch
// mutations touching several entries use raw util adjustments plus one
// settleProc per distinct processor instead, so shared signature groups are
// refreshed once per processor rather than once per entry.
func (l *Ledger) addUtil(proc int, amount int64) {
	l.util[proc] += amount
	l.settleProc(proc)
}

// settleProc finalizes a processor after raw utilization adjustments: it
// recomputes the processor's AUB term from its utilization.
func (l *Ledger) settleProc(proc int) {
	l.setTerm(proc, termUnits(l.util[proc]))
}

// setTerm sets a processor's AUB term to t and adds count·δ, δ the term's
// change, to the sum of every signature group visiting the processor,
// maintaining the violated counter. It is the only writer of a registered
// group's cachedSum.
func (l *Ledger) setTerm(proc int, t int64) {
	d := t - l.term[proc]
	if d == 0 {
		return
	}
	l.term[proc] = t
	if d > 0 {
		l.work.SumMovesUp += int64(len(l.procGroups[proc]))
	} else {
		l.work.SumMovesDown += int64(len(l.procGroups[proc]))
	}
	for _, r := range l.procGroups[proc] {
		g := r.g
		was := g.counted > 0 && g.cachedSum > unitsPerOne
		g.cachedSum += r.c * d
		l.flipViolated(g, was)
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

// freshSum is Σ_p count[p]·term[p] over the group's signature: the sum a
// new group starts from, and what the audit holds cachedSum to.
func (l *Ledger) freshSum(g *sigGroup) int64 {
	var s int64
	for i, p := range g.procs {
		s += int64(g.counts[i]) * l.term[p]
	}
	return s
}

// flipViolated adjusts the violated counter after a group's counted or
// cachedSum changed; was is the group's violation status before the change.
func (l *Ledger) flipViolated(g *sigGroup, was bool) {
	now := g.counted > 0 && g.cachedSum > unitsPerOne
	if was && !now {
		l.violated--
	} else if !was && now {
		l.violated++
	}
}

// setCounted flips a job's membership in its group's counted tally.
func (l *Ledger) setCounted(rec *jobRec, counted bool) {
	g := rec.group
	if g == nil || rec.counted == counted {
		rec.counted = counted && g != nil
		return
	}
	was := g.counted > 0 && g.cachedSum > unitsPerOne
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
				g.maxCount = int64(slices.Max(g.counts))
				g.cachedSum = l.freshSum(g)
				g.next = l.groups[h]
				l.groups[h] = g
				l.procGroupAdd(g)
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
	t := &l.tasks[rec.key.Task]
	if rec.prevT != nil {
		rec.prevT.nextT = rec.nextT
	} else {
		t.head = rec.nextT
	}
	if rec.nextT != nil {
		rec.nextT.prevT = rec.prevT
	} else {
		t.tail = rec.prevT
	}
	rec.prevT, rec.nextT = nil, nil
	l.njobs--
	// Every index has dropped the record; recycle it.
	rec.entries = rec.entries[:0]
	rec.group = nil
	rec.counted = false
	l.freeRecs = append(l.freeRecs, rec)
}

// AddJob records the contributions of an admitted job placed per placement,
// without an admission test (tests and the ablation replay build ledger
// states with it, overloaded ones included). When
// permanent is true the contributions never expire (the per-task admission
// strategy reserves a periodic task's synthetic utilization for its whole
// lifetime); otherwise expiry is the job's absolute deadline. Adding an
// already-present job is an error: the admission controller must not
// double-admit.
func (l *Ledger) AddJob(k JobKey, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) error {
	if err := l.checkPlacement(k, placement); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addJob(k, kind, placement, permanent, expiry, false)
}

// TestAndAddKey runs the AUB admission test and, on success, records the
// job, in one critical section — what an Admissible/AddJob pair cannot be,
// since two concurrent candidates could both pass a test with room for one.
// It returns whether the job was admitted; the error reports argument
// problems or a double admission (both also rejections).
//
//rtmw:noalloc
func (l *Ledger) TestAndAddKey(k JobKey, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) (bool, error) {
	// admissible indexes its scratch by processor, so the placement is
	// checked before it is tested.
	if err := l.checkPlacement(k, placement); err != nil {
		return false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.prime(placement) || !l.admitScan(placement) {
		return false, nil
	}
	if err := l.addJob(k, kind, placement, permanent, expiry, true); err != nil {
		return false, err
	}
	return true, nil
}

// TestAndAdd is TestAndAddKey for a job named by task name, each name bound
// to a ref of the ledger's own on first use. Only the frozen benchmark probe
// benchmark/probe_sched.go calls it.
//
//rtmw:noalloc
func (l *Ledger) TestAndAdd(ref JobRef, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) (bool, error) {
	return l.TestAndAddKey(JobKey{Task: l.nameRef(ref.Task), Job: ref.Job}, kind, placement, permanent, expiry)
}

// WithdrawJob is WithdrawKey for a job named by task name (see TestAndAdd).
// Only the frozen benchmark probe benchmark/probe_sched.go calls it.
func (l *Ledger) WithdrawJob(ref JobRef) int {
	return l.WithdrawKey(JobKey{Task: l.nameRef(ref.Task), Job: ref.Job})
}

// nameRef returns the ref bound to a name, binding the next one on first
// use.
//
//rtmw:noalloc
func (l *Ledger) nameRef(name string) TaskRef {
	l.mu.Lock()
	defer l.mu.Unlock()
	tr, ok := l.names[name]
	if !ok {
		if l.names == nil {
			//rtmw:ignore noalloc one-time lazy index, amortized to zero over the ledger's life
			l.names = make(map[string]TaskRef)
		}
		tr = TaskRef(len(l.names))
		//rtmw:ignore noalloc a name's first use only
		l.names[name] = tr
	}
	return tr
}

// addJob is AddJob under the lock, after checkPlacement. When admitted, an
// admission test has just passed the placement, and commitAdmitted applies
// it from the test's scratch, whose tentative terms are the new ones. The
// job's own checks come before anything is applied.
func (l *Ledger) addJob(k JobKey, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration, admitted bool) error {
	if k.Task < 0 {
		return fmt.Errorf("sched: job %s has a negative task ref", k)
	}
	if l.findJob(k) != nil {
		return fmt.Errorf("sched: job %s already in ledger", k)
	}
	rec := l.allocRec()
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for _, p := range placement {
		n, _ := toUnits(p.Util) // checkPlacement vouched for it
		rec.entries = append(rec.entries, entry{stage: p.Stage, proc: p.Proc, amount: n, kind: kind, permanent: permanent, expiry: expiry})
		if !admitted {
			l.util[p.Proc] += n
			touched = touchProc(touched, p.Proc)
		}
	}
	if admitted {
		l.commitAdmitted()
	}
	for _, p := range touched {
		l.settleProc(p)
	}
	l.fileJob(k, rec)
	l.reindex(rec)
	return nil
}

// checkPlacement is the placement check of AddJob and Relocate: every stage
// on a known processor, with a utilization toUnits accepts. It reads only the
// processor count, which never changes, so it needs no lock.
func (l *Ledger) checkPlacement(k JobKey, placement []PlacedStage) error {
	for _, p := range placement {
		if p.Proc < 0 || p.Proc >= len(l.util) {
			return fmt.Errorf("sched: job %s stage %d placed on unknown processor %d", k, p.Stage, p.Proc)
		}
		if _, ok := toUnits(p.Util); !ok {
			return fmt.Errorf("sched: job %s stage %d has utilization %g outside [0, 1]", k, p.Stage, p.Util)
		}
	}
	return nil
}

// ExpireJob removes all remaining contributions of the job because its
// absolute deadline passed, and forgets the job. Permanent entries are not
// removed by expiry (per-task reservations outlive individual deadlines);
// jobs made only of permanent entries are left in place. It returns the
// number of contributions removed.
//
//rtmw:noalloc
func (l *Ledger) ExpireJob(k JobKey) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.findJob(k)
	if rec == nil {
		return 0
	}
	n := 0
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	permanentOnly := true
	for i := range rec.entries {
		e := &rec.entries[i]
		if e.permanent {
			continue
		}
		permanentOnly = false
		if e.removed == 0 {
			e.removed = RemovedExpiry
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

// WithdrawKey removes every remaining contribution of one job — including
// permanent per-task reservation entries, which ExpireJob deliberately
// skips — and forgets the job. It is the reconfiguration rebase primitive:
// when the admission strategy moves away from per-task control, each task's
// permanent reservation is withdrawn so the ledger reflects only per-job
// contributions under the new strategy. It returns the number of
// contributions removed.
func (l *Ledger) WithdrawKey(k JobKey) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.findJob(k)
	if rec == nil {
		return 0
	}
	return l.withdrawRec(rec)
}

// withdrawRec is WithdrawKey after the job lookup.
func (l *Ledger) withdrawRec(rec *jobRec) int {
	n := 0
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for i := range rec.entries {
		if e := &rec.entries[i]; e.removed == 0 {
			e.removed = RemovedWithdrawal
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
func (l *Ledger) RemoveTask(tr TaskRef) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tr < 0 || int(tr) >= len(l.tasks) {
		return 0
	}
	n := 0
	for rec := l.tasks[tr].head; rec != nil; rec = l.tasks[tr].head {
		n += l.withdrawRec(rec)
	}
	return n
}

// markComplete marks a job's stage complete.
func (l *Ledger) markComplete(rec *jobRec, stage int) {
	changed := false
	for i := range rec.entries {
		if e := &rec.entries[i]; e.stage == stage && !e.completed {
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

// resetEntry applies the idle resetting rule to one contribution of a job.
func (l *Ledger) resetEntry(rec *jobRec, stage, proc int) bool {
	for i := range rec.entries {
		e := &rec.entries[i]
		if e.stage != stage || e.proc != proc {
			continue
		}
		if e.permanent || !e.completed || e.removed != 0 {
			return false
		}
		e.removed = RemovedIdleReset
		l.addUtil(e.proc, -e.amount)
		l.reindex(rec)
		return true
	}
	return false
}

// ResetReported applies one idle-resetting report entry in one critical
// section: it marks the reported stage of the job complete (the job may
// leave the in-flight set) and, if the entry is known, completed and still
// active, removes its contribution. It returns true if utilization was
// released. Permanent (per-task reserved) entries are never reset: the
// per-task admission strategy must keep the reservation, which is exactly
// why the AC-per-task/IR-per-job combination is invalid. Unknown jobs are
// ignored (the job may already have expired).
//
//rtmw:noalloc
func (l *Ledger) ResetReported(r Entry[JobKey]) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.findJob(r.Ref)
	if rec == nil {
		return false
	}
	l.markComplete(rec, r.Stage)
	return l.resetEntry(rec, r.Stage, r.Proc)
}

// Relocate moves the active contributions of a job to a new placement (used
// by AC-per-task with LB-per-job, where an admitted task's reservation
// follows the jobs). Completed/removed entries are left as-is; a stage
// placed twice takes its last placement.
func (l *Ledger) Relocate(k JobKey, placement []PlacedStage) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := l.findJob(k)
	if rec == nil {
		return fmt.Errorf("sched: relocate: job %s not in ledger", k)
	}
	if err := l.checkPlacement(k, placement); err != nil {
		return fmt.Errorf("sched: relocate: %w", err)
	}
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for i := range rec.entries {
		e := &rec.entries[i]
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
		l.util[e.proc] -= e.amount
		touched = touchProc(touched, e.proc)
		e.proc = p.Proc
		e.amount, _ = toUnits(p.Util)
		l.util[e.proc] += e.amount
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
// as it found it (it writes only its scratch and the scan stamps).
//
// The evaluation is indexed: jobs visiting none of the candidate's
// processors keep their sums (already ≤ 1, else the violated counter
// short-circuits), and the perturbed jobs are looked at once per distinct
// processor-visit signature instead of once per job, so the cost is linear
// in the groups indexed under the perturbed processors. The decision is the
// full-scan referenceAdmissible's.
//
//rtmw:noalloc
func (l *Ledger) Admissible(placement []PlacedStage) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.admissible(placement)
}

// admissible is Admissible under the lock.
//
//rtmw:noalloc
func (l *Ledger) admissible(placement []PlacedStage) bool {
	return l.prime(placement) && l.admitScan(placement)
}

// prime fills the test's scratch: it zeroes the last test's deltas, then
// sets the candidate's, its perturbed processors, their tentative AUB terms
// and candGrow. It returns false if a stage toUnits refuses, which rejects
// the candidate as AddJob would refuse it.
//
//rtmw:noalloc
func (l *Ledger) prime(placement []PlacedStage) bool {
	if l.candDelta == nil {
		//rtmw:ignore noalloc one-time lazy scratch, amortized to zero over the ledger's life
		l.candDelta = make([]int64, len(l.util))
		//rtmw:ignore noalloc one-time lazy scratch, amortized to zero over the ledger's life
		l.candTerm = make([]int64, len(l.util))
	}
	delta, tent := l.candDelta, l.candTerm
	for _, p := range l.candProcs {
		delta[p] = 0
	}
	l.candProcs = l.candProcs[:0]
	ok := true
	for _, p := range placement {
		n, valid := toUnits(p.Util)
		ok = ok && valid
		delta[p.Proc] += n
		l.candProcs = touchProc(l.candProcs, p.Proc)
	}
	l.candGrow = 0
	for _, p := range l.candProcs {
		tent[p] = termUnits(l.util[p] + delta[p])
		l.candGrow += tent[p] - l.term[p]
	}
	return ok
}

// commitAdmitted applies an admitted candidate from prime's scratch:
// util[p] += delta[p], and term[p] = tent[p] through setTerm's walk. The
// test found every counted group's new sum at most 1, so nothing becomes
// violated.
//
//rtmw:noalloc
func (l *Ledger) commitAdmitted() {
	for _, p := range l.candProcs {
		l.util[p] += l.candDelta[p]
		l.setTerm(p, l.candTerm[p])
	}
}

// admitScan is Admissible after prime.
//
//rtmw:noalloc
func (l *Ledger) admitScan(placement []PlacedStage) bool {
	delta, tent := l.candDelta, l.candTerm
	// Candidate's own condition under the tentative utilizations.
	var sum int64
	for _, p := range placement {
		sum += tent[p.Proc]
	}
	if sum > unitsPerOne {
		return false
	}

	// Some in-flight job already violates its condition without the
	// candidate; adding utilization cannot repair it.
	if l.violated > 0 {
		return false
	}

	// Look only at the signature groups that visit a perturbed processor;
	// every other in-flight job's sum is unchanged, and the violated counter
	// already vouches for it. A perturbed group's sum grows by
	// Σ count[q]·(tent[q] − term[q]) ≤ maxCount·grow, so one whose sum leaves
	// room for that cannot exceed 1 and is passed without summing. Every
	// other group adds its own growth to its exact sum, and that decides.
	grow := l.candGrow
	l.scan++
	var met, passed, summed int64
	ok := true
walk:
	for _, pp := range l.candProcs {
		if delta[pp] == 0 {
			continue
		}
		for _, r := range l.procGroups[pp] {
			met++
			g := r.g
			if g.counted == 0 || g.scanned == l.scan {
				continue
			}
			if g.cachedSum+g.maxCount*grow <= unitsPerOne {
				passed++
				continue
			}
			summed++
			g.scanned = l.scan
			s := g.cachedSum
			for qi, q := range g.procs {
				if delta[q] != 0 {
					s += int64(g.counts[qi]) * (tent[q] - l.term[q])
				}
			}
			if s > unitsPerOne {
				ok = false
				break walk
			}
		}
	}
	w := l.work
	w.GroupsMet += met
	w.GroupsPassed += passed
	w.GroupsSummed += summed
	return ok
}

// referenceAdmissible is the paper-literal full-scan admission test: every
// in-flight job's condition is recomputed from its entry records. It is the
// behavioral reference for the indexed Admissible, kept for CheckInvariants
// and the differential property tests. Its terms and sums are the indexed
// path's exact integers, so the two decisions agree by arithmetic, at the
// bound too.
func (l *Ledger) referenceAdmissible(placement []PlacedStage) bool {
	for _, p := range placement {
		if _, ok := toUnits(p.Util); !ok {
			return false
		}
	}
	termAt := func(proc int) int64 {
		u := l.util[proc]
		for _, p := range placement {
			if p.Proc == proc {
				n, _ := toUnits(p.Util)
				u += n
			}
		}
		return termUnits(u)
	}

	// Candidate's own condition.
	var sum int64
	for _, p := range placement {
		sum += termAt(p.Proc)
	}
	if sum > unitsPerOne {
		return false
	}

	// Condition for every in-flight admitted job, over the processors its
	// active contributions visit. Fully completed jobs cannot miss their
	// deadlines anymore and are skipped.
	for _, t := range l.tasks {
		for rec := t.head; rec != nil; rec = rec.nextT {
			if !rec.inFlight() || !rec.active() {
				continue
			}
			procs, counts := appendSignature(l.sigProcs[:0], l.sigCounts[:0], rec)
			l.sigProcs, l.sigCounts = procs, counts
			var s int64
			for i, p := range procs {
				s += int64(counts[i]) * termAt(p)
			}
			if s > unitsPerOne {
				return false
			}
		}
	}
	return true
}

// ActiveJobs returns the keys of jobs that still hold at least one active
// contribution, in key order. Intended for tests and instrumentation.
func (l *Ledger) ActiveJobs() []JobKey {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []JobKey
	for _, t := range l.tasks {
		for rec := t.head; rec != nil; rec = rec.nextT {
			if rec.active() {
				out = append(out, rec.key)
			}
		}
	}
	slices.SortFunc(out, JobKey.compare)
	return out
}

// CheckInvariants recomputes per-processor utilization from entry records
// and verifies it equals the running sums, that no utilization is negative,
// and that every index (the task lists, signature groups with their sums,
// each equal to its fresh sum, and the violated counter) agrees with the
// ground-truth records. It also requires the indexed Admissible to agree
// with referenceAdmissible on the empty candidate.
// Property tests call it after random operation sequences, and the
// simulation after every run; it allocates the same few times whatever the
// ledger holds, more only to report a failure. It holds the lock throughout,
// so it is safe while decisions are live.
func (l *Ledger) CheckInvariants() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Every task's list: back links consistent, each record filed under its
	// own task and below the job numbers before it, the tail where the walk
	// ends, and together the ledger's job count. The bound ends the walk on a
	// cycle whatever the links say.
	listed := 0
	for tr, t := range l.tasks {
		var prev *jobRec
		for rec := t.head; rec != nil; prev, rec = rec, rec.nextT {
			if listed++; listed > l.njobs {
				return fmt.Errorf("sched: task lists hold more than the ledger's %d jobs (cycle or stale record in task %d)", l.njobs, tr)
			}
			if rec.prevT != prev {
				return fmt.Errorf("sched: task list of %d: job %d has a wrong back link", tr, rec.key.Job)
			}
			if rec.key.Task != TaskRef(tr) {
				return fmt.Errorf("sched: job %s filed in the task list of %d", rec.key, tr)
			}
			if prev != nil && rec.key.Job >= prev.key.Job {
				return fmt.Errorf("sched: task list of %d: job %d follows job %d, out of job order", tr, rec.key.Job, prev.key.Job)
			}
		}
		if t.tail != prev {
			return fmt.Errorf("sched: task list of %d does not end at its tail", tr)
		}
	}
	if listed != l.njobs {
		return fmt.Errorf("sched: task lists hold %d jobs, the ledger counts %d", listed, l.njobs)
	}

	// Each job's entries against the running sums, its signature against its
	// group, and its group's member and counted tallies, stamped by this
	// audit.
	l.audits++
	recomputed := make([]int64, len(l.util))
	referenced := 0
	for _, t := range l.tasks {
		for rec := t.head; rec != nil; rec = rec.nextT {
			for i := range rec.entries {
				if e := &rec.entries[i]; e.removed == 0 {
					recomputed[e.proc] += e.amount
				}
			}
			if err := l.auditJob(rec, &referenced); err != nil {
				return err
			}
		}
	}
	for p := range l.util {
		if l.util[p] < 0 {
			return fmt.Errorf("sched: processor %d has negative utilization (%d units)", p, l.util[p])
		}
		if l.util[p] != recomputed[p] {
			return fmt.Errorf("sched: processor %d utilization drift: running %d units vs recomputed %d", p, l.util[p], recomputed[p])
		}
		if l.term[p] != termUnits(l.util[p]) {
			return fmt.Errorf("sched: processor %d has stale AUB term cache", p)
		}
	}

	wantViolated, registered := 0, 0
	for h, head := range l.groups {
		for g := head; g != nil; g = g.next {
			// Every registered group has a member job, so chains holding more
			// groups than the ledger has jobs have a cycle.
			if registered++; registered > l.njobs {
				return fmt.Errorf("sched: group chains hold more than the ledger's %d jobs (cycle under hash %#x)", l.njobs, h)
			}
			if g.audit != l.audits {
				g.auditMembers, g.auditCounted = 0, 0
			}
			if err := l.checkGroup(h, g); err != nil {
				return err
			}
			if g.counted > 0 && g.cachedSum > unitsPerOne {
				wantViolated++
			}
		}
	}
	if referenced != registered {
		return fmt.Errorf("sched: %d groups referenced by jobs, %d registered", referenced, registered)
	}
	for p := range l.procGroups {
		for _, r := range l.procGroups[p] {
			if g := r.g; l.findGroup(g.hash, g.procs, g.counts) != g {
				return fmt.Errorf("sched: processor %d group index holds unregistered group %q", p, sigString(g.procs, g.counts))
			}
		}
	}
	if l.violated != wantViolated {
		return fmt.Errorf("sched: violated counter %d, recomputed %d", l.violated, wantViolated)
	}

	if fast, ref := l.admissible(nil), l.referenceAdmissible(nil); fast != ref {
		return fmt.Errorf("sched: indexed Admissible(nil)=%v disagrees with reference %v", fast, ref)
	}
	return nil
}

// auditJob checks one job's signature group and counted flag, and tallies
// the job on its group, counting in referenced each group it stamps first.
func (l *Ledger) auditJob(rec *jobRec, referenced *int) error {
	procs, counts := appendSignature(l.sigProcs[:0], l.sigCounts[:0], rec)
	l.sigProcs, l.sigCounts = procs, counts
	g, k := rec.group, rec.key
	switch {
	case len(procs) == 0 && g != nil:
		return fmt.Errorf("sched: inactive job %s still grouped", k)
	case len(procs) > 0 && g == nil:
		return fmt.Errorf("sched: active job %s has no signature group", k)
	case g != nil && !g.sameSig(procs, counts):
		return fmt.Errorf("sched: job %s grouped under %v/%v, signature is %q",
			k, g.procs, g.counts, sigString(procs, counts))
	case g == nil:
		return nil
	}
	if g.audit != l.audits {
		if l.findGroup(g.hash, g.procs, g.counts) != g {
			return fmt.Errorf("sched: job %s grouped under unregistered group %q", k, sigString(g.procs, g.counts))
		}
		g.audit, g.auditMembers, g.auditCounted = l.audits, 0, 0
		*referenced++
	}
	g.auditMembers++
	if want := rec.inFlight() && rec.active(); rec.counted != want {
		return fmt.Errorf("sched: job %s counted=%v, want %v", k, rec.counted, want)
	}
	if rec.counted {
		g.auditCounted++
	}
	return nil
}

// checkGroup audits one registered group, found on the chain of hash h,
// against the member and counted tallies auditJob gave it.
func (l *Ledger) checkGroup(h uint64, g *sigGroup) error {
	if len(g.counts) != len(g.procs) {
		return fmt.Errorf("sched: group %v has %d counts for %d processors", g.procs, len(g.counts), len(g.procs))
	}
	if got := sigHash(g.procs, g.counts); g.hash != h || got != h {
		return fmt.Errorf("sched: group %q filed under hash %#x, records %#x, hashes to %#x", sigString(g.procs, g.counts), h, g.hash, got)
	}
	if l.findGroup(h, g.procs, g.counts) != g {
		return fmt.Errorf("sched: signature %q registered twice", sigString(g.procs, g.counts))
	}
	if g.members != g.auditMembers {
		return fmt.Errorf("sched: group %q has %d members, records show %d", sigString(g.procs, g.counts), g.members, g.auditMembers)
	}
	if g.counted != g.auditCounted {
		return fmt.Errorf("sched: group %q counts %d in-flight jobs, records show %d", sigString(g.procs, g.counts), g.counted, g.auditCounted)
	}
	if s := l.freshSum(g); g.cachedSum != s {
		return fmt.Errorf("sched: group %q cached sum %d units, fresh sum %d", sigString(g.procs, g.counts), g.cachedSum, s)
	}
	if want := int64(slices.Max(g.counts)); g.maxCount != want {
		return fmt.Errorf("sched: group %q max count %d, signature has %d", sigString(g.procs, g.counts), g.maxCount, want)
	}
	for i, p := range g.procs {
		pg := l.procGroups[p]
		if i >= len(g.procPos) || g.procPos[i] < 0 || g.procPos[i] >= len(pg) || pg[g.procPos[i]] != (groupRef{g, int64(g.counts[i])}) {
			return fmt.Errorf("sched: group %q missing from processor %d group index, or filed there with a wrong count", sigString(g.procs, g.counts), p)
		}
	}
	return nil
}
