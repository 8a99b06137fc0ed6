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

// entry is one live or historical contribution record: one stage of a job.
// A job's entries are one span of the ledger's entry arena (Ledger.ents).
//
//rtmw:noscan
type entry struct {
	amount    int64 // C/D in ledger units (toUnits)
	stage     int
	proc      int32
	removed   bool // by the idle resetting rule
	completed bool
}

// active reports whether a job's entries still carry at least one
// non-removed contribution.
func active(es []entry) bool {
	for i := range es {
		if !es[i].removed {
			return true
		}
	}
	return false
}

// inFlight reports whether a job's entries still have at least one
// uncompleted stage. Only in-flight jobs can still miss their deadlines, so
// the admission test is evaluated over in-flight jobs plus the candidate.
func inFlight(es []entry) bool {
	for i := range es {
		if !es[i].completed {
			return true
		}
	}
	return false
}

// jobRec is one admitted job, a slot of the record slab (Ledger.recs). It
// links to records and groups by slab index, 0 standing for none, so it
// holds no pointer.
//
//rtmw:noscan
type jobRec struct {
	// key names the job (freeKey while the slot is free), and prevT/nextT
	// link it into its task's list (Ledger.tasks), the ledger's one index of
	// jobs, or nextT into the free list.
	key          JobKey
	prevT, nextT int32
	group        int32 // the job's signature group; 0 while none is active
	// The entries are l.ents[ec][eo:eo+nent]; the slot keeps the span's room
	// entCap when it is recycled.
	ec, eo, nent, entCap int32
	periodic             bool
	permanent            bool // a per-task reservation: expiry leaves it
	counted              bool // in its group's counted tally
}

// freeKey is the key of a free job record.
var freeKey = JobKey{Task: -1}

// sigEntry is one processor of a processor-visit signature: the processor,
// the number of a job's active entries on it and, for a registered group,
// the group's position in that processor's group index (procGroups).
//
//rtmw:noscan
type sigEntry struct {
	proc, count, pos int32
}

// appendSignature appends the processor-visit signature of a job's entries
// to sig: the distinct processors its active (non-removed) entries occupy,
// sorted, with the number of entries on each. Jobs with equal signatures
// have identical AUB sums, so the ledger evaluates each signature once per
// admission test instead of once per job. It appends nothing for a job with
// no active contribution.
func appendSignature(sig []sigEntry, es []entry) []sigEntry {
	base := len(sig)
	for ei := range es {
		e := &es[ei]
		if e.removed {
			continue
		}
		found := false
		for i := base; i < len(sig); i++ {
			if sig[i].proc == e.proc {
				sig[i].count++
				found = true
				break
			}
		}
		if !found {
			sig = append(sig, sigEntry{proc: e.proc, count: 1})
		}
	}
	// Insertion sort; a job has at most a handful of stages.
	for i := base + 1; i < len(sig); i++ {
		for k := i; k > base && sig[k].proc < sig[k-1].proc; k-- {
			sig[k], sig[k-1] = sig[k-1], sig[k]
		}
	}
	return sig
}

// sigHash hashes a signature's (processor, count) pairs: the signature
// groups' hash table key. Equal signatures hash equal; groups whose hashes
// fall in one bucket share a chain and are told apart by hash and sameSig.
func sigHash(sig []sigEntry) uint64 {
	h := uint64(len(sig))
	for _, e := range sig {
		h = (h ^ uint64(e.proc)<<32 ^ uint64(e.count)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// sigString renders a signature as "proc:count,...", for messages.
func sigString(sig []sigEntry) string {
	var b strings.Builder
	for i, e := range sig {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", e.proc, e.count)
	}
	return b.String()
}

// sigGroup aggregates every ledger job sharing one processor-visit
// signature. The AUB condition of a job depends only on its signature (the
// per-processor terms are shared by all jobs), so one cached sum serves the
// whole group and Admissible touches groups, not jobs. A group is a slot of
// the group slab (Ledger.sigGroups); its sum is l.sums under the same index.
//
//rtmw:noscan
type sigGroup struct {
	// hash is sigHash of the signature, the group's key in Ledger.groups,
	// and next chains the groups sharing its bucket, or the free groups.
	hash uint64
	// scanned is the Ledger.scan value of the last admission test that
	// summed the group, so a group met under several perturbed processors is
	// summed once per test. The skip's verdict holds for the whole test, so
	// only a group past it reads the stamp.
	scanned uint64
	next    int32
	// The signature is l.sigs[sc][so:so+nsig], sorted by processor; the
	// slot keeps the span's room sigCap when it is recycled.
	sc, so, nsig, sigCap int32
	members              int32 // job records in the group
	// auditMembers and auditCounted are CheckInvariants' tallies of the
	// group's members and counted jobs.
	auditMembers, auditCounted int32
}

// groupSum is the part of a signature group that every admission scan and
// every term change touches, kept in one dense array indexed by group so
// those walks read 16 bytes a group, four groups to a cache line.
//
//rtmw:noscan
type groupSum struct {
	// cachedSum is Σ_p count[p]·term[p] in ledger units, exactly: every
	// change δ of a term on one of the group's processors adds count·δ to it
	// (setTerm), so it always equals the fresh sum.
	cachedSum int64
	// counted is the number of member jobs that are in flight and active —
	// exactly the jobs the admission test must cover.
	counted int32
	// maxCount is the signature's largest per-processor entry count: a
	// candidate raises the group's sum by at most maxCount times the total
	// growth of the perturbed terms.
	maxCount int32
}

// violates reports whether the group holds a counted job whose sum already
// exceeds 1.
func (s *groupSum) violates() bool { return s.counted > 0 && s.cachedSum > unitsPerOne }

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
// Every index is pointer-free: job records and signature groups live in
// slabs and link to each other by slab index, and a job's entries and a
// group's signature are spans of two flat arenas, so the collector has
// nothing to mark in the ledger whatever it holds.
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

	tasks []jobList // per task ref, its jobs; grown on demand
	njobs int       // jobs in the task lists

	// recs is the record slab (record r at position r-1) and ents the entry
	// arena; both grow a chunk at a time and never move what they hold.
	// freeRec heads the free records. A slot is freed only in forgetJob,
	// after every index has dropped it.
	recs    []*[poolChunk]jobRec
	freeRec int32
	ents    [][]entry

	// sigGroups is the group slab, sums its hot half (one slot a group, so
	// len(sums) counts the slots) and sigs the signature arena; the slab and
	// the arena grow a chunk at a time. Slot 0 is the sentinel; freeGroup
	// heads the free groups.
	sigGroups []*[grpChunk]sigGroup
	sums      []groupSum
	freeGroup int32
	sigs      [][]sigEntry
	// groups is the signature hash table: bucket heads, a power of two of
	// them (or none), each chaining through sigGroup.next the groups whose
	// hash falls in it; ngroups counts the groups registered. It doubles
	// when they outnumber its buckets.
	groups  []int32
	ngroups int
	// procGroups indexes, per processor, the groups whose signature visits
	// it (swap-remove via sigEntry.pos).
	procGroups [][]groupRef
	// violated counts groups with counted > 0 whose sum already exceeds 1:
	// while any exist, no candidate is admissible (adding utilization can
	// only grow a group's sum).
	violated int

	// sig is the signature scratch of reindex and the audits, reused across
	// calls, so deriving a job's signature allocates nothing.
	sig []sigEntry

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
	// groups created beyond the free lists, as the slabs grew.
	RecsAllocated   int64
	GroupsAllocated int64
}

// groupRef is one entry of a processor's group index: the group and its
// signature's count on that processor, so a change of the processor's term
// moves the group's sum without reading its signature.
//
//rtmw:noscan
type groupRef struct {
	group, count int32
}

// jobList is one task's jobs, linked through jobRec.prevT/nextT from the
// highest job number (head) down to the lowest (tail); 0 ends it. Both
// bindings admit a task's jobs in job-number order, so a new job goes in at
// the head and one expiring goes from the tail, each in one step.
//
//rtmw:noscan
type jobList struct {
	head, tail int32
}

// NewLedger returns an empty ledger over numProcs processors numbered
// 0..numProcs-1.
func NewLedger(numProcs int) *Ledger {
	return &Ledger{
		util:       make([]int64, numProcs),
		term:       make([]int64, numProcs),
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

// ReserveTasks sizes the per-task job lists for refs below n at once, so
// that filing those tasks' jobs grows nothing.
func (l *Ledger) ReserveTasks(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > len(l.tasks) {
		l.tasks = append(l.tasks, make([]jobList, n-len(l.tasks))...)
	}
}

// NumProcs returns the number of processors the ledger tracks.
func (l *Ledger) NumProcs() int { return len(l.util) }

// The chunks the ledger grows by: poolChunk records when the free list is
// empty, grpChunk groups, entChunk entries and sigChunk signature entries (a
// longer span gets a chunk of its own), and at least groupChunk entries of a
// processor's group index.
const (
	recShift   = 6
	poolChunk  = 1 << recShift
	grpShift   = 6
	grpChunk   = 1 << grpShift
	entChunk   = 1024
	sigChunk   = 1024
	groupChunk = 64
)

// rec returns job record r. Chunks never move, so the pointer stays valid
// for the ledger's life.
func (l *Ledger) rec(r int32) *jobRec {
	r--
	return &l.recs[r>>recShift][r&(poolChunk-1)]
}

// allocRec takes a free job record, which keeps its entry span; an empty
// free list is restocked with poolChunk new slots.
func (l *Ledger) allocRec() int32 {
	if l.freeRec == 0 {
		l.recs = append(l.recs, new([poolChunk]jobRec))
		top := int32(len(l.recs) * poolChunk)
		for r := top; r > top-poolChunk; r-- {
			rec := l.rec(r)
			rec.key, rec.nextT, l.freeRec = freeKey, l.freeRec, r
		}
		l.work.RecsAllocated += poolChunk
	}
	r := l.freeRec
	rec := l.rec(r)
	l.freeRec, rec.nextT = rec.nextT, 0
	return r
}

// allocEntries sizes a record's entry span to n entries, cutting a new span
// from the arena when the one it keeps is too small, and returns it.
func (l *Ledger) allocEntries(rec *jobRec, n int) []entry {
	if int(rec.entCap) < n || l.ents == nil {
		rec.ec, rec.eo = cutSpan(&l.ents, n, entChunk)
		rec.entCap = int32(n)
	}
	rec.nent = int32(n)
	return l.ents[rec.ec][rec.eo : rec.eo+rec.nent]
}

// cutSpan cuts a span of n elements from the last chunk of arena, starting
// a chunk of max(chunk, n) when it has no room, and returns the span's
// chunk and offset. Chunks never move, so a span stays where it is cut.
func cutSpan[T any](arena *[][]T, n, chunk int) (c, off int32) {
	last := len(*arena) - 1
	if last < 0 || cap((*arena)[last])-len((*arena)[last]) < n {
		*arena = append(*arena, make([]T, 0, max(chunk, n)))
		last++
	}
	s := (*arena)[last]
	(*arena)[last] = s[:len(s)+n]
	return int32(last), int32(len(s))
}

// entries returns record r's entries, a span of the arena.
func (l *Ledger) entries(r int32) []entry {
	rec := l.rec(r)
	return l.ents[rec.ec][rec.eo : rec.eo+rec.nent]
}

// group returns group slot g. Chunks never move, so the pointer stays
// valid for the ledger's life.
func (l *Ledger) group(g int32) *sigGroup {
	return &l.sigGroups[g>>grpShift][g&(grpChunk-1)]
}

// allocGroup takes a free signature group, which keeps its signature span,
// or the slab's next slot.
func (l *Ledger) allocGroup() int32 {
	if g := l.freeGroup; g != 0 {
		gr := l.group(g)
		l.freeGroup, gr.next = gr.next, 0
		return g
	}
	if len(l.sums) == 0 {
		l.sums = append(l.sums, groupSum{}) // the sentinel
	}
	g := int32(len(l.sums))
	if int(g>>grpShift) == len(l.sigGroups) {
		l.sigGroups = append(l.sigGroups, new([grpChunk]sigGroup))
	}
	l.sums = append(l.sums, groupSum{})
	l.work.GroupsAllocated++
	return g
}

// groupSig returns group g's signature, a span of the arena.
func (l *Ledger) groupSig(g int32) []sigEntry {
	gr := l.group(g)
	return l.sigs[gr.sc][gr.so : gr.so+gr.nsig]
}

// sameSig reports whether group g's signature is exactly sig.
func (l *Ledger) sameSig(g int32, sig []sigEntry) bool {
	have := l.groupSig(g)
	if len(have) != len(sig) {
		return false
	}
	for i := range have {
		if have[i].proc != sig[i].proc || have[i].count != sig[i].count {
			return false
		}
	}
	return true
}

// findJob returns the record of job k, or 0, walking its task's list from
// the end nearer k's job number.
func (l *Ledger) findJob(k JobKey) int32 {
	if k.Task < 0 || int(k.Task) >= len(l.tasks) {
		return 0
	}
	t := l.tasks[k.Task]
	if t.head == 0 {
		return 0
	}
	head, tail := l.rec(t.head), l.rec(t.tail)
	if k.Job > head.key.Job || k.Job < tail.key.Job {
		return 0
	}
	// Unsigned differences cannot overflow: tail ≤ k ≤ head, so either walk
	// stops at the far end at the latest.
	r, rec := t.head, head
	if uint64(k.Job)-uint64(tail.key.Job) < uint64(head.key.Job)-uint64(k.Job) {
		for r, rec = t.tail, tail; rec.key.Job < k.Job; rec = l.rec(r) {
			r = rec.prevT
		}
	} else {
		for ; rec.key.Job > k.Job; rec = l.rec(r) {
			r = rec.nextT
		}
	}
	if rec.key.Job != k.Job {
		return 0
	}
	return r
}

// fileJob enters a new job record into its task's list, in job-number
// order, growing the per-task lists to cover the ref.
func (l *Ledger) fileJob(k JobKey, r int32) {
	if n := int(k.Task) + 1 - len(l.tasks); n > 0 {
		l.tasks = append(l.tasks, make([]jobList, n)...)
	}
	rec := l.rec(r)
	rec.key = k
	t := &l.tasks[k.Task]
	next := t.head // the record r goes before
	for next != 0 && l.rec(next).key.Job > k.Job {
		next = l.rec(next).nextT
	}
	prev := t.tail
	if next != 0 {
		prev = l.rec(next).prevT
	}
	rec.prevT, rec.nextT = prev, next
	if prev != 0 {
		l.rec(prev).nextT = r
	} else {
		t.head = r
	}
	if next != 0 {
		l.rec(next).prevT = r
	} else {
		t.tail = r
	}
	l.njobs++
}

// newGroup registers a group for signature sig under hash h: its span, its
// fresh sum and maximum count, its hash chain and its processors' indexes.
func (l *Ledger) newGroup(h uint64, sig []sigEntry) int32 {
	g := l.allocGroup()
	gr := l.group(g)
	if n := int32(len(sig)); gr.sigCap < n || l.sigs == nil {
		gr.sc, gr.so = cutSpan(&l.sigs, len(sig), sigChunk)
		gr.sigCap = n
	}
	copy(l.sigs[gr.sc][gr.so:], sig)
	gr.nsig, gr.hash = int32(len(sig)), h
	if l.ngroups == len(l.groups) {
		l.rehash(max(groupChunk, 2*len(l.groups)))
	}
	b := l.bucket(h)
	gr.next, l.groups[b] = l.groups[b], g
	l.ngroups++
	var maxCount int32
	for _, e := range sig {
		maxCount = max(maxCount, e.count)
	}
	l.sums[g] = groupSum{cachedSum: l.freshSum(g), maxCount: maxCount}
	l.procGroupAdd(g)
	return g
}

// procGroupAdd registers a group in the per-processor group index of every
// processor its signature visits.
func (l *Ledger) procGroupAdd(g int32) {
	sig := l.groupSig(g)
	for i := range sig {
		p := sig[i].proc
		pg := l.procGroups[p]
		if len(pg) == cap(pg) {
			pg = slices.Grow(pg, groupChunk)
		}
		sig[i].pos = int32(len(pg))
		l.procGroups[p] = append(pg, groupRef{g, sig[i].count})
	}
}

// procGroupRemove swap-removes a group from every per-processor index it is
// registered in, fixing the moved group's position for that processor.
func (l *Ledger) procGroupRemove(g int32) {
	for _, e := range l.groupSig(g) {
		s := l.procGroups[e.proc]
		last := len(s) - 1
		moved := s[last]
		s[e.pos] = moved
		if moved.group != g {
			msig := l.groupSig(moved.group)
			for j := range msig {
				if msig[j].proc == e.proc {
					msig[j].pos = e.pos
					break
				}
			}
		}
		l.procGroups[e.proc] = s[:last]
	}
}

// bucket returns the hash table bucket of hash h.
func (l *Ledger) bucket(h uint64) int {
	return int(h & uint64(len(l.groups)-1))
}

// rehash spreads the registered groups over n buckets.
func (l *Ledger) rehash(n int) {
	old := l.groups
	l.groups = make([]int32, n)
	for _, head := range old {
		for g := head; g != 0; {
			gr := l.group(g)
			next, b := gr.next, l.bucket(gr.hash)
			gr.next, l.groups[b] = l.groups[b], g
			g = next
		}
	}
}

// findGroup returns the registered group with signature sig under hash h,
// or 0.
func (l *Ledger) findGroup(h uint64, sig []sigEntry) int32 {
	if len(l.groups) == 0 {
		return 0
	}
	for g := l.groups[l.bucket(h)]; g != 0; g = l.group(g).next {
		if l.group(g).hash == h && l.sameSig(g, sig) {
			return g
		}
	}
	return 0
}

// unlinkGroup takes a group off its hash chain.
func (l *Ledger) unlinkGroup(g int32) {
	gr := l.group(g)
	at := &l.groups[l.bucket(gr.hash)]
	for *at != g && *at != 0 {
		at = &l.group(*at).next
	}
	if *at == g {
		*at = gr.next
		l.ngroups--
	}
	gr.next = 0
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
//
//rtmw:noalloc
func (l *Ledger) setTerm(proc int, t int64) {
	d := t - l.term[proc]
	if d == 0 {
		return
	}
	l.term[proc] = t
	refs := l.procGroups[proc]
	if d > 0 {
		l.work.SumMovesUp += int64(len(refs))
	} else {
		l.work.SumMovesDown += int64(len(refs))
	}
	sums := l.sums
	for _, r := range refs {
		s := &sums[r.group]
		old := s.cachedSum
		s.cachedSum = old + int64(r.count)*d
		// The group's violation flips only where its sum crosses 1, and
		// only a group with counted jobs is violated at all.
		if (old > unitsPerOne) != (s.cachedSum > unitsPerOne) && s.counted > 0 {
			if d > 0 {
				l.violated++
			} else {
				l.violated--
			}
		}
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

// freshSum is Σ_p count[p]·term[p] over group g's signature: the sum a new
// group starts from, and what the audit holds cachedSum to.
func (l *Ledger) freshSum(g int32) int64 {
	var s int64
	for _, e := range l.groupSig(g) {
		s += int64(e.count) * l.term[e.proc]
	}
	return s
}

// flipViolated adjusts the violated counter after a group's counted or
// cachedSum changed; was is the group's violation status before the change.
func (l *Ledger) flipViolated(s *groupSum, was bool) {
	if now := s.violates(); was && !now {
		l.violated--
	} else if !was && now {
		l.violated++
	}
}

// setCounted flips job r's membership in its group's counted tally.
func (l *Ledger) setCounted(r int32, counted bool) {
	rec := l.rec(r)
	g := rec.group
	if g == 0 || rec.counted == counted {
		rec.counted = counted && g != 0
		return
	}
	s := &l.sums[g]
	was := s.violates()
	if counted {
		s.counted++
	} else {
		s.counted--
	}
	rec.counted = counted
	l.flipViolated(s, was)
}

// leaveGroup detaches job r from its current signature group, releasing the
// group when the last member leaves.
func (l *Ledger) leaveGroup(r int32) {
	rec := l.rec(r)
	g := rec.group
	if g == 0 {
		return
	}
	l.setCounted(r, false)
	rec.group = 0
	gr := l.group(g)
	if gr.members--; gr.members > 0 {
		return
	}
	l.unlinkGroup(g)
	l.procGroupRemove(g)
	// Recycle, keeping the signature span: an empty group can never be
	// violated (that requires counted > 0), so dropping it does not touch
	// the violated counter.
	gr.nsig = 0
	l.sums[g] = groupSum{}
	gr.next, l.freeGroup = l.freeGroup, g
}

// reindex re-derives job r's signature group membership and counted status
// after any mutation of its entries. It must run after the utilization
// updates of the same mutation so a newly created group caches the final
// sums.
func (l *Ledger) reindex(r int32) {
	es := l.entries(r)
	sig := appendSignature(l.sig[:0], es)
	l.sig = sig
	rec := l.rec(r)
	if g := rec.group; g == 0 || !l.sameSig(g, sig) {
		l.leaveGroup(r)
		if len(sig) > 0 {
			h := sigHash(sig)
			g := l.findGroup(h, sig)
			if g == 0 {
				g = l.newGroup(h, sig)
			}
			l.group(g).members++
			rec.group = g
		}
	}
	l.setCounted(r, rec.group != 0 && inFlight(es) && active(es))
}

// forgetJob removes job record r and all its index state, and frees the
// slot. The caller has already settled the job's utilization contributions.
func (l *Ledger) forgetJob(r int32) {
	l.leaveGroup(r)
	rec := l.rec(r)
	t := &l.tasks[rec.key.Task]
	if rec.prevT != 0 {
		l.rec(rec.prevT).nextT = rec.nextT
	} else {
		t.head = rec.nextT
	}
	if rec.nextT != 0 {
		l.rec(rec.nextT).prevT = rec.prevT
	} else {
		t.tail = rec.prevT
	}
	l.njobs--
	// Every index has dropped the record; recycle it, keeping its span.
	*rec = jobRec{key: freeKey, ec: rec.ec, eo: rec.eo, entCap: rec.entCap, nextT: l.freeRec}
	l.freeRec = r
}

// AddJob records the contributions of an admitted job placed per placement,
// without an admission test (tests and the ablation replay build ledger
// states with it, overloaded ones included). When
// permanent is true the contributions never expire (the per-task admission
// strategy reserves a periodic task's synthetic utilization for its whole
// lifetime); otherwise expiry is the job's absolute deadline, at which the
// caller calls ExpireJob (the ledger keeps no clock, so it does not store
// it). Adding an already-present job is an error: the admission controller
// must not double-admit.
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
	if l.findJob(k) != 0 {
		return fmt.Errorf("sched: job %s already in ledger", k)
	}
	r := l.allocRec()
	rec := l.rec(r)
	rec.periodic, rec.permanent = kind == Periodic, permanent
	es := l.allocEntries(rec, len(placement))
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for i, p := range placement {
		n, _ := toUnits(p.Util) // checkPlacement vouched for it
		es[i] = entry{stage: p.Stage, proc: int32(p.Proc), amount: n}
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
	l.fileJob(k, r)
	l.reindex(r)
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
// absolute deadline passed, and forgets the job. A permanent job is left in
// place (per-task reservations outlive individual deadlines), and so is a
// job with no stages. It returns the number of contributions removed.
//
//rtmw:noalloc
func (l *Ledger) ExpireJob(k JobKey) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.findJob(k)
	if r == 0 {
		return 0
	}
	if rec := l.rec(r); rec.permanent || rec.nent == 0 {
		return 0
	}
	return l.dropJob(r)
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
	r := l.findJob(k)
	if r == 0 {
		return 0
	}
	return l.dropJob(r)
}

// dropJob withdraws job r's active contributions, settles their processors
// and forgets the job, returning the number withdrawn.
func (l *Ledger) dropJob(r int32) int {
	n := 0
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for _, e := range l.entries(r) {
		if !e.removed {
			l.util[e.proc] -= e.amount
			touched = touchProc(touched, int(e.proc))
			n++
		}
	}
	for _, p := range touched {
		l.settleProc(p)
	}
	l.forgetJob(r)
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
	for r := l.tasks[tr].head; r != 0; r = l.tasks[tr].head {
		n += l.dropJob(r)
	}
	return n
}

// markComplete marks a stage of job r complete.
func (l *Ledger) markComplete(r int32, stage int) {
	changed := false
	es := l.entries(r)
	for i := range es {
		if e := &es[i]; e.stage == stage && !e.completed {
			e.completed = true
			changed = true
		}
	}
	if changed {
		// The active set — and with it the signature group — is unchanged,
		// but the job may have left the in-flight set, which drops it from
		// the admission test.
		l.setCounted(r, l.rec(r).group != 0 && inFlight(es) && active(es))
	}
}

// resetEntry applies the idle resetting rule to one contribution of job r.
func (l *Ledger) resetEntry(r int32, stage, proc int) bool {
	es := l.entries(r)
	for i := range es {
		e := &es[i]
		if e.stage != stage || int(e.proc) != proc {
			continue
		}
		if l.rec(r).permanent || !e.completed || e.removed {
			return false
		}
		e.removed = true
		l.addUtil(proc, -e.amount)
		l.reindex(r)
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
func (l *Ledger) ResetReported(re Entry[JobKey]) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.findJob(re.Ref)
	if r == 0 {
		return false
	}
	l.markComplete(r, re.Stage)
	return l.resetEntry(r, re.Stage, re.Proc)
}

// Relocate moves the active contributions of a job to a new placement (used
// by AC-per-task with LB-per-job, where an admitted task's reservation
// follows the jobs). Completed/removed entries are left as-is; a stage
// placed twice takes its last placement.
func (l *Ledger) Relocate(k JobKey, placement []PlacedStage) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.findJob(k)
	if r == 0 {
		return fmt.Errorf("sched: relocate: job %s not in ledger", k)
	}
	if err := l.checkPlacement(k, placement); err != nil {
		return fmt.Errorf("sched: relocate: %w", err)
	}
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	es := l.entries(r)
	for i := range es {
		e := &es[i]
		if e.removed {
			continue
		}
		at := -1
		for i, p := range placement {
			if p.Stage == e.stage {
				at = i
			}
		}
		if at < 0 || int(e.proc) == placement[at].Proc {
			continue
		}
		p := placement[at]
		l.util[e.proc] -= e.amount
		touched = touchProc(touched, int(e.proc))
		e.proc = int32(p.Proc)
		e.amount, _ = toUnits(p.Util)
		l.util[e.proc] += e.amount
		touched = touchProc(touched, p.Proc)
	}
	if len(touched) > 0 {
		for _, p := range touched {
			l.settleProc(p)
		}
		l.reindex(r)
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
	// Candidate's own condition under the tentative utilizations.
	var sum int64
	for _, p := range placement {
		sum += l.candTerm[p.Proc]
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
	l.scan++
	var met, passed, summed int64
	ok := true
	for _, p := range l.candProcs {
		if l.candDelta[p] == 0 {
			continue
		}
		m, ps, sm, fits := l.scanGroups(l.procGroups[p])
		met, passed, summed = met+m, passed+ps, summed+sm
		if !fits {
			ok = false
			break
		}
	}
	w := l.work
	w.GroupsMet += met
	w.GroupsPassed += passed
	w.GroupsSummed += summed
	return ok
}

// scanGroups is admitScan's walk over one perturbed processor's group
// index. It passes on the skip every counted group whose sum leaves room for
// maxCount·candGrow, sums the rest (sumGroup) and stops at the first whose
// sum would exceed 1. It returns the entries met, the groups passed and
// summed, and whether every group fits. A function of its own, the walk
// keeps its few values in registers; inside admitScan they spilled on
// every pass.
//
//rtmw:noalloc
func (l *Ledger) scanGroups(refs []groupRef) (met, passed, summed int64, fits bool) {
	sums, grow := l.sums, l.candGrow
	for i, r := range refs {
		s := &sums[r.group]
		if s.counted == 0 {
			continue
		}
		if s.cachedSum+int64(s.maxCount)*grow <= unitsPerOne {
			passed++
			continue
		}
		if sum, over := l.sumGroup(r.group); sum {
			summed++
			if over {
				return int64(i + 1), passed, summed, false
			}
		}
	}
	return int64(len(refs)), passed, summed, true
}

// sumGroup sums group g under the candidate's tentative terms, once per
// test: sum reports whether it did (false when this test summed the group
// already), over whether the sum exceeds 1.
//
//rtmw:noalloc
func (l *Ledger) sumGroup(g int32) (sum, over bool) {
	gr := l.group(g)
	if gr.scanned == l.scan {
		return false, false
	}
	gr.scanned = l.scan
	total := l.sums[g].cachedSum
	for _, e := range l.sigs[gr.sc][gr.so : gr.so+gr.nsig] {
		if l.candDelta[e.proc] != 0 {
			total += int64(e.count) * (l.candTerm[e.proc] - l.term[e.proc])
		}
	}
	return true, total > unitsPerOne
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
		for r := t.head; r != 0; r = l.rec(r).nextT {
			es := l.entries(r)
			if !inFlight(es) || !active(es) {
				continue
			}
			l.sig = appendSignature(l.sig[:0], es)
			var s int64
			for _, e := range l.sig {
				s += int64(e.count) * termAt(int(e.proc))
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
		for r := t.head; r != 0; r = l.rec(r).nextT {
			if active(l.entries(r)) {
				out = append(out, l.rec(r).key)
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
// ground-truth records. It accounts for every slab slot: each job record is
// in exactly one task list or on the free list, each group on a hash chain
// (and in the group index of every processor its signature names) or on the
// free list, never both, and live plus free fill the slab. It also requires
// the indexed Admissible to agree with referenceAdmissible on the empty
// candidate.
// Property tests call it after random operation sequences, and the
// simulation after every run; it allocates the same few times whatever the
// ledger holds, more only to report a failure. It holds the lock throughout,
// so it is safe while decisions are live.
func (l *Ledger) CheckInvariants() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.sigGroups {
		for i := range c {
			c[i].auditMembers, c[i].auditCounted = 0, 0
		}
	}
	if err := l.auditRecords(); err != nil {
		return err
	}

	// Each job's entries against the running sums, its signature against its
	// group, and its group's member and counted tallies.
	recomputed := make([]int64, len(l.util))
	referenced := 0
	for _, t := range l.tasks {
		for r := t.head; r != 0; r = l.rec(r).nextT {
			if err := l.auditJob(r, &referenced); err != nil {
				return err
			}
			for _, e := range l.entries(r) {
				if !e.removed {
					recomputed[e.proc] += e.amount
				}
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

	if err := l.auditGroups(referenced); err != nil {
		return err
	}
	if fast, ref := l.admissible(nil), l.referenceAdmissible(nil); fast != ref {
		return fmt.Errorf("sched: indexed Admissible(nil)=%v disagrees with reference %v", fast, ref)
	}
	return nil
}

// auditRecords checks every task's list — no free record in it, back links
// consistent, each record filed under its own task and below the job
// numbers before it, the tail where the walk ends, and together the
// ledger's job count — then the record slab: the free list holds only free
// records (freeKey), so no slot is both listed and free, and listed plus
// free records fill the slab. The bounds end every walk on a cycle whatever
// the links say.
func (l *Ledger) auditRecords() error {
	slots := len(l.recs) * poolChunk
	listed := 0
	for tr, t := range l.tasks {
		var prev int32
		for r := t.head; r != 0; prev, r = r, l.rec(r).nextT {
			if listed++; listed > l.njobs {
				return fmt.Errorf("sched: task lists hold more than the ledger's %d jobs (cycle or stale record in task %d)", l.njobs, tr)
			}
			rec := l.rec(r)
			if rec.key == freeKey {
				return fmt.Errorf("sched: task list of %d holds slot %d, which is free", tr, r)
			}
			if rec.prevT != prev {
				return fmt.Errorf("sched: task list of %d: job %d has a wrong back link", tr, rec.key.Job)
			}
			if rec.key.Task != TaskRef(tr) {
				return fmt.Errorf("sched: job %s filed in the task list of %d", rec.key, tr)
			}
			if prev != 0 && rec.key.Job >= l.rec(prev).key.Job {
				return fmt.Errorf("sched: task list of %d: job %d follows job %d, out of job order", tr, rec.key.Job, l.rec(prev).key.Job)
			}
		}
		if t.tail != prev {
			return fmt.Errorf("sched: task list of %d does not end at its tail", tr)
		}
	}
	if listed != l.njobs {
		return fmt.Errorf("sched: task lists hold %d jobs, the ledger counts %d", listed, l.njobs)
	}
	free := 0
	for r := l.freeRec; r != 0; r = l.rec(r).nextT {
		if rec := l.rec(r); rec.key != freeKey {
			return fmt.Errorf("sched: free list holds slot %d, which is job %s", r, rec.key)
		}
		if free++; listed+free > slots {
			return fmt.Errorf("sched: record free list holds more than the %d unlisted slots (cycle)", slots-listed)
		}
	}
	if listed+free != slots {
		return fmt.Errorf("sched: %d records listed and %d free, the slab holds %d", listed, free, slots)
	}
	return nil
}

// auditJob checks job r's signature group and counted flag, and tallies the
// job on its group, counting in referenced each group it tallies first.
func (l *Ledger) auditJob(r int32, referenced *int) error {
	es := l.entries(r)
	l.sig = appendSignature(l.sig[:0], es)
	sig := l.sig
	rec := l.rec(r)
	g, k := rec.group, rec.key
	switch {
	case len(sig) == 0 && g != 0:
		return fmt.Errorf("sched: inactive job %s still grouped", k)
	case len(sig) > 0 && g == 0:
		return fmt.Errorf("sched: active job %s has no signature group", k)
	case g == 0:
		return nil
	case !l.sameSig(g, sig):
		return fmt.Errorf("sched: job %s grouped under %q, signature is %q", k, sigString(l.groupSig(g)), sigString(sig))
	}
	gr := l.group(g)
	if gr.auditMembers == 0 {
		if l.findGroup(gr.hash, sig) != g {
			return fmt.Errorf("sched: job %s grouped under unregistered group %q", k, sigString(sig))
		}
		*referenced++
	}
	gr.auditMembers++
	if want := inFlight(es) && active(es); rec.counted != want {
		return fmt.Errorf("sched: job %s counted=%v, want %v", k, rec.counted, want)
	}
	if rec.counted {
		gr.auditCounted++
	}
	return nil
}

// auditGroups checks every group on a hash chain against the tallies
// auditJob gave it, recounts the violated counter, and accounts for the
// group slab: the chains hold exactly the groups jobs reference, every
// processor's group index exactly their signatures' entries, the free list
// none of them, and registered plus free groups fill the slab.
func (l *Ledger) auditGroups(referenced int) error {
	wantViolated, registered, indexed := 0, 0, 0
	for b, head := range l.groups {
		for g := head; g != 0; g = l.group(g).next {
			// Every registered group has a member job, so chains holding more
			// groups than the ledger has jobs have a cycle.
			if registered++; registered > l.njobs {
				return fmt.Errorf("sched: group chains hold more than the ledger's %d jobs (cycle in bucket %d)", l.njobs, b)
			}
			if err := l.checkGroup(b, g); err != nil {
				return err
			}
			if l.sums[g].violates() {
				wantViolated++
			}
			indexed += int(l.group(g).nsig)
		}
	}
	if referenced != registered || l.ngroups != registered {
		return fmt.Errorf("sched: %d groups referenced by jobs, %d registered, %d counted", referenced, registered, l.ngroups)
	}
	// The chains hold exactly the referenced groups, each with a tally;
	// checkGroup found each in its processors' indexes, so an index holding
	// only tallied groups and no more entries than their signatures holds
	// nothing else.
	for p := range l.procGroups {
		for _, r := range l.procGroups[p] {
			if l.group(r.group).auditMembers == 0 {
				return fmt.Errorf("sched: processor %d group index holds unregistered group slot %d", p, r.group)
			}
		}
		indexed -= len(l.procGroups[p])
	}
	if indexed != 0 {
		return fmt.Errorf("sched: processor group indexes hold %d entries more than the registered signatures", -indexed)
	}
	if l.violated != wantViolated {
		return fmt.Errorf("sched: violated counter %d, recomputed %d", l.violated, wantViolated)
	}
	free, slots := 0, max(len(l.sums)-1, 0)
	for g := l.freeGroup; g != 0; g = l.group(g).next {
		if l.group(g).auditMembers != 0 {
			return fmt.Errorf("sched: group slot %d is registered and on the free list", g)
		}
		if free++; registered+free > slots {
			return fmt.Errorf("sched: group free list holds more than the %d unregistered slots (cycle)", slots-registered)
		}
	}
	if registered+free != slots {
		return fmt.Errorf("sched: %d groups registered and %d free, the slab holds %d", registered, free, slots)
	}
	return nil
}

// checkGroup audits group g, found on the chain of bucket b, against the
// member and counted tallies auditJob gave it.
func (l *Ledger) checkGroup(b int, g int32) error {
	gr, sig, s := l.group(g), l.groupSig(g), &l.sums[g]
	if got := sigHash(sig); l.bucket(gr.hash) != b || got != gr.hash {
		return fmt.Errorf("sched: group %q filed in bucket %d, records hash %#x, hashes to %#x", sigString(sig), b, gr.hash, got)
	}
	if l.findGroup(gr.hash, sig) != g {
		return fmt.Errorf("sched: signature %q registered twice", sigString(sig))
	}
	if gr.members != gr.auditMembers {
		return fmt.Errorf("sched: group %q has %d members, records show %d", sigString(sig), gr.members, gr.auditMembers)
	}
	if s.counted != gr.auditCounted {
		return fmt.Errorf("sched: group %q counts %d in-flight jobs, records show %d", sigString(sig), s.counted, gr.auditCounted)
	}
	if fresh := l.freshSum(g); s.cachedSum != fresh {
		return fmt.Errorf("sched: group %q cached sum %d units, fresh sum %d", sigString(sig), s.cachedSum, fresh)
	}
	var maxCount int32
	for _, e := range sig {
		maxCount = max(maxCount, e.count)
	}
	if s.maxCount != maxCount {
		return fmt.Errorf("sched: group %q max count %d, signature has %d", sigString(sig), s.maxCount, maxCount)
	}
	for _, e := range sig {
		pg := l.procGroups[e.proc]
		if e.pos < 0 || int(e.pos) >= len(pg) || pg[e.pos] != (groupRef{g, e.count}) {
			return fmt.Errorf("sched: group %q missing from processor %d group index, or filed there with a wrong count", sigString(sig), e.proc)
		}
	}
	return nil
}
