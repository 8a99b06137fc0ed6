package sched

// Sharded admission plane.
//
// ShardedLedger splits the AUB ledger into N shards so independent admission
// traffic takes independent locks. The shards partition the *processors* into
// contiguous blocks (shard(p) = p·N/numProcs); a signature group whose
// processors fall inside one block lives entirely in that shard, so
// single-shard candidates — the overwhelming majority, since a task's visit
// signature is fixed — admit inside one shard lock. Per-processor synthetic
// utilization is authoritative only in the shard owning the processor, which
// keeps every shard's util/term caches exact no matter how jobs span shards.
//
// Jobs whose placement spans blocks ("cross jobs") are split into per-shard
// partial records (keeping per-processor accounting exact) plus one
// authoritative full-signature record in the cross registry, evaluated
// against lock-free atomic mirrors of the per-processor AUB terms. Cross
// candidates use optimistic admission: a seqlock-validated epoch snapshot
// computes the candidate's own condition lock-free and rejects without any
// lock; plausible admits validate-or-retry under the involved shard locks
// (bounded retries, then the ordered-lock path unconditionally), so admission
// never livelocks.
//
// Lock-ordering invariant (see also the package comment in task.go): shard
// mutexes are only ever acquired in ascending shard index; crossMu nests
// inside the shard locks; route-stripe mutexes and the journal mutex are
// leaves (acquired last, never while waiting on any other ledger lock).
// AuditLedger/CheckInvariants and every other whole-ledger operation take all
// shard locks in that fixed global order.

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// maxShards bounds the shard count so a job's shard set fits a uint64 mask.
const maxShards = 64

// routeStripeCount is the number of stripes in the job→shard-mask route map.
// A power of two so the stripe hash is a mask.
const routeStripeCount = 32

// ledgerShard is one shard: a full-width Ledger whose utilization is
// authoritative for the shard's processor block, its own mutex, and a seqlock
// epoch (odd while a mutation is in progress) validating optimistic readers.
type ledgerShard struct {
	mu    sync.Mutex //rtmw:lockrank 1 indexed
	l     *Ledger
	epoch atomic.Uint64
	// prevViolated is the shard ledger's violated count last pushed into the
	// global counter, maintained under mu.
	prevViolated int
	// Pad to keep hot shard state on distinct cache lines.
	_ [64]byte
}

func (sh *ledgerShard) beginWrite() { sh.epoch.Add(1) }
func (sh *ledgerShard) endWrite()   { sh.epoch.Add(1) }

// routeStripe is one stripe of the job→shard-mask index consulted by
// reference-keyed operations (expiry, withdrawal, completion) to find the
// shards holding a job. A one-shard ledger keeps no routes: see routeGet.
type routeStripe struct {
	mu sync.Mutex //rtmw:lockrank 3 indexed
	m  map[JobRef]uint64
	_  [40]byte
}

// crossEntry mirrors one contribution of a cross-shard job in the cross
// registry: enough state to re-derive the job's full processor-visit
// signature and in-flight status without visiting the per-shard partials.
type crossEntry struct {
	stage     int
	proc      int
	completed bool
	removed   RemovalReason
}

// crossRec is the authoritative full-signature record of one cross-shard
// job. The per-shard partial records keep the processor accounting exact;
// this record carries the whole-job AUB condition, which no single shard can
// evaluate alone.
type crossRec struct {
	ref       JobRef
	mask      uint64
	permanent bool
	kind      TaskKind
	entries   []crossEntry
	// procs is the distinct-processor membership of byProc, fixed at insert.
	procs []int
	// violated reports whether the job's condition currently exceeds the
	// bound (counted in the global violated counter).
	violated bool
	// stamp dedupes multi-processor visits within one scan.
	stamp uint64
}

// crossSet is the cross-shard job registry, guarded by ShardedLedger.crossMu.
type crossSet struct {
	jobs   map[JobRef]*crossRec
	byProc [][]*crossRec
	stamp  uint64
	// signature scratch for condition evaluation.
	sumProcs  []int
	sumCounts []int
}

// ledgerOpKind enumerates journaled mutations for the linearization-replay
// differential test.
type ledgerOpKind uint8

const (
	opTestAndAdd ledgerOpKind = iota + 1
	opAddJob
	opExpireJob
	opWithdrawJob
	opRemoveTask
	opMarkComplete
	opResetEntry
	opResetReported
	opRelocate
)

// ledgerOp is one journaled mutation with its observed result. The journal
// order is a valid linearization: every pair of non-commuting operations
// holds a common lock while appending.
type ledgerOp struct {
	kind      ledgerOpKind
	ref       JobRef
	task      string
	taskKind  TaskKind
	placement []PlacedStage
	permanent bool
	expiry    time.Duration
	stage     int
	entry     EntryRef
	decision  bool
	n         int
}

// opJournal records mutations under the mutating operation's locks (its own
// mutex is the innermost lock in the ledger order).
type opJournal struct {
	mu  sync.Mutex //rtmw:lockrank 3
	ops []ledgerOp
}

// ShardedLedgerStats counts cross-shard admission activity. Single-shard
// operations are deliberately not counted: a shared counter on the hot path
// would serialize the very traffic sharding parallelizes.
type ShardedLedgerStats struct {
	// CrossAdmits counts committed cross-shard admissions.
	CrossAdmits uint64
	// OptimisticRejects counts cross candidates rejected lock-free from a
	// validated epoch snapshot.
	OptimisticRejects uint64
	// EpochRetries counts optimistic snapshots invalidated by a concurrent
	// shard mutation before falling back to the ordered-lock path.
	EpochRetries uint64
}

// ShardedLedger is the sharded synthetic-utilization ledger: a drop-in
// admission plane with the Ledger method set plus the atomic TestAndAdd
// admission path, safe for concurrent use. With one shard every operation
// delegates to a single plain Ledger under its lock — no route map, no cross
// registry — making decisions and floating-point state bit-identical to the
// unsharded ledger.
type ShardedLedger struct {
	numProcs  int
	nshards   int
	procShard []int32

	shards []ledgerShard

	// violated is the global count of in-flight condition violations: the sum
	// of every shard ledger's violated counter plus the flagged cross jobs.
	// Any positive value rejects all candidates (monotonicity: adding
	// utilization cannot repair a violated condition). Shard-local partial
	// groups may over-flag a cross job its full record also flags; that is
	// harmless, because a partial sum above the bound implies the full sum is
	// too.
	violated atomic.Int64

	// utilBits/termBits mirror each owning shard's util/term as float bits,
	// stored under the owner's lock after every settle; readers (the
	// optimistic cross path, cross-registry evaluation, Util/Utils) load them
	// without locks.
	utilBits []atomic.Uint64
	termBits []atomic.Uint64

	// crossOnProc counts cross jobs registered on each processor; operations
	// touching a processor with a zero count skip crossMu entirely.
	crossOnProc []atomic.Int32
	crossCount  atomic.Int64

	crossMu sync.Mutex //rtmw:lockrank 2
	cross   crossSet

	routes [routeStripeCount]routeStripe

	// journal, when enabled, records every mutation for linearization replay.
	journal *opJournal

	scratch sync.Pool // *multiScratch

	crossAdmits       atomic.Uint64
	optimisticRejects atomic.Uint64
	epochRetries      atomic.Uint64
}

// multiScratch is pooled per-call scratch for multi-shard operations.
type multiScratch struct {
	part    []PlacedStage
	touched []int
	delta   []float64
	tent    []float64
	procs   []int
}

// NewShardedLedger returns an empty sharded ledger over numProcs processors
// split into shards contiguous processor blocks. The shard count is clamped
// to [1, min(numProcs, 64)].
func NewShardedLedger(numProcs, shards int) *ShardedLedger {
	if shards < 1 {
		shards = 1
	}
	if shards > numProcs {
		shards = numProcs
	}
	if shards > maxShards {
		shards = maxShards
	}
	sl := &ShardedLedger{
		numProcs:    numProcs,
		nshards:     shards,
		procShard:   make([]int32, numProcs),
		shards:      make([]ledgerShard, shards),
		utilBits:    make([]atomic.Uint64, numProcs),
		termBits:    make([]atomic.Uint64, numProcs),
		crossOnProc: make([]atomic.Int32, numProcs),
	}
	for p := 0; p < numProcs; p++ {
		sl.procShard[p] = int32(p * shards / numProcs)
	}
	for s := range sl.shards {
		sl.shards[s].l = NewLedger(numProcs)
	}
	sl.cross.jobs = make(map[JobRef]*crossRec)
	sl.cross.byProc = make([][]*crossRec, numProcs)
	if shards > 1 {
		for i := range sl.routes {
			sl.routes[i].m = make(map[JobRef]uint64)
		}
	}
	sl.scratch.New = func() any {
		return &multiScratch{
			part:    make([]PlacedStage, 0, 16),
			touched: make([]int, 0, 16),
			delta:   make([]float64, 0, 16),
			tent:    make([]float64, 0, 16),
			procs:   make([]int, 0, 16),
		}
	}
	return sl
}

// NumProcs returns the number of processors the ledger tracks.
func (sl *ShardedLedger) NumProcs() int { return sl.numProcs }

// NumShards returns the shard count.
func (sl *ShardedLedger) NumShards() int { return sl.nshards }

// StatsSnapshot returns the cross-shard admission counters.
func (sl *ShardedLedger) StatsSnapshot() ShardedLedgerStats {
	return ShardedLedgerStats{
		CrossAdmits:       sl.crossAdmits.Load(),
		OptimisticRejects: sl.optimisticRejects.Load(),
		EpochRetries:      sl.epochRetries.Load(),
	}
}

// shardOf returns the shard owning a processor.
func (sl *ShardedLedger) shardOf(proc int) int { return int(sl.procShard[proc]) }

// maskOf returns the shard mask of a placement. Empty placements map to
// shard 0 so the job record still has a home.
func (sl *ShardedLedger) maskOf(placement []PlacedStage) uint64 {
	var mask uint64
	for _, p := range placement {
		mask |= 1 << uint(sl.procShard[p.Proc])
	}
	if mask == 0 {
		mask = 1
	}
	return mask
}

// lockMask acquires the shard locks named by mask in ascending index order —
// the package's global lock order.
func (sl *ShardedLedger) lockMask(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		sl.shards[bits.TrailingZeros64(m)].mu.Lock()
	}
}

// unlockMask releases the shard locks named by mask.
func (sl *ShardedLedger) unlockMask(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		sl.shards[bits.TrailingZeros64(m)].mu.Unlock()
	}
}

// beginWriteMask/endWriteMask bracket a mutation of every shard in mask for
// the seqlock epochs.
func (sl *ShardedLedger) beginWriteMask(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		sl.shards[bits.TrailingZeros64(m)].beginWrite()
	}
}

func (sl *ShardedLedger) endWriteMask(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		sl.shards[bits.TrailingZeros64(m)].endWrite()
	}
}

// allMask returns the mask naming every shard.
func (sl *ShardedLedger) allMask() uint64 {
	if sl.nshards == maxShards {
		return ^uint64(0)
	}
	return (1 << uint(sl.nshards)) - 1
}

// syncProc publishes a processor's util/term into the atomic mirrors. Caller
// holds the owning shard's lock.
func (sl *ShardedLedger) syncProc(proc int) {
	l := sl.shards[sl.procShard[proc]].l
	sl.utilBits[proc].Store(math.Float64bits(l.util[proc]))
	sl.termBits[proc].Store(math.Float64bits(l.term[proc]))
}

// syncPlacementProcs publishes the mirrors of every processor a placement
// touches. Duplicate processors store twice, which is idempotent and cheaper
// than deduplicating.
func (sl *ShardedLedger) syncPlacementProcs(placement []PlacedStage) {
	for _, p := range placement {
		sl.syncProc(p.Proc)
	}
}

// mirrorTerm loads a processor's AUB term from the atomic mirror.
func (sl *ShardedLedger) mirrorTerm(proc int) float64 {
	return math.Float64frombits(sl.termBits[proc].Load())
}

// mirrorUtil loads a processor's synthetic utilization from the atomic
// mirror.
func (sl *ShardedLedger) mirrorUtil(proc int) float64 {
	return math.Float64frombits(sl.utilBits[proc].Load())
}

// pushViolated publishes a shard ledger's violated-count delta into the
// global counter. Caller holds the shard's lock.
func (sl *ShardedLedger) pushViolated(sh *ledgerShard) {
	if d := sh.l.violated - sh.prevViolated; d != 0 {
		sl.violated.Add(int64(d))
		sh.prevViolated = sh.l.violated
	}
}

// Util returns the processor's current synthetic utilization from the atomic
// mirror (lock-free; exact, since mirrors are stored under the owning shard's
// lock after every settle).
func (sl *ShardedLedger) Util(proc int) float64 {
	if proc < 0 || proc >= sl.numProcs {
		return 0
	}
	return sl.mirrorUtil(proc)
}

// Utils returns a copy of all per-processor synthetic utilizations.
func (sl *ShardedLedger) Utils() []float64 {
	out := make([]float64, sl.numProcs)
	for p := range out {
		out[p] = sl.mirrorUtil(p)
	}
	return out
}

// stripeFor hashes a job reference onto its route stripe (FNV-1a over the
// task name and job number).
func (sl *ShardedLedger) stripeFor(ref JobRef) *routeStripe {
	h := uint64(14695981039346656037)
	for i := 0; i < len(ref.Task); i++ {
		h ^= uint64(ref.Task[i])
		h *= 1099511628211
	}
	j := uint64(ref.Job)
	for i := 0; i < 8; i++ {
		h ^= (j >> (8 * uint(i))) & 0xff
		h *= 1099511628211
	}
	return &sl.routes[h&(routeStripeCount-1)]
}

// routeGet returns the shard mask a job was recorded under. With one shard
// there is nothing to look up: every job the ledger holds is in shard 0, so
// the answer is always "shard 0, if anywhere", no route is ever stored
// (routePutIfAbsent, routeSet and routeDelete return at once), and whether
// the job exists — a double admission, an unknown reference — is decided by
// the shard's own job index under its lock, as in the plain Ledger.
func (sl *ShardedLedger) routeGet(ref JobRef) (uint64, bool) {
	if sl.nshards == 1 {
		return 1, true
	}
	st := sl.stripeFor(ref)
	st.mu.Lock()
	mask, ok := st.m[ref]
	st.mu.Unlock()
	return mask, ok
}

// routePutIfAbsent records a job's shard mask, failing if the job is already
// routed (a double admission). Stripe locks are leaves: callers hold the
// involved shard locks.
func (sl *ShardedLedger) routePutIfAbsent(ref JobRef, mask uint64) bool {
	if sl.nshards == 1 {
		return true
	}
	st := sl.stripeFor(ref)
	st.mu.Lock()
	if _, ok := st.m[ref]; ok {
		st.mu.Unlock()
		return false
	}
	st.m[ref] = mask
	st.mu.Unlock()
	return true
}

// routeSet unconditionally records a job's shard mask (relocation).
func (sl *ShardedLedger) routeSet(ref JobRef, mask uint64) {
	if sl.nshards == 1 {
		return
	}
	st := sl.stripeFor(ref)
	st.mu.Lock()
	st.m[ref] = mask
	st.mu.Unlock()
}

// routeDelete forgets a job's route.
func (sl *ShardedLedger) routeDelete(ref JobRef) {
	if sl.nshards == 1 {
		return
	}
	st := sl.stripeFor(ref)
	st.mu.Lock()
	delete(st.m, ref)
	st.mu.Unlock()
}

// enableJournal turns on mutation journaling for linearization-replay tests.
// Must be called before any concurrent use.
func (sl *ShardedLedger) enableJournal() { sl.journal = &opJournal{} }

// journalOps snapshots the journal.
func (sl *ShardedLedger) journalOps() []ledgerOp {
	if sl.journal == nil {
		return nil
	}
	sl.journal.mu.Lock()
	out := append([]ledgerOp(nil), sl.journal.ops...)
	sl.journal.mu.Unlock()
	return out
}

// journalAppend records one mutation. Called while the mutation's locks are
// still held so the journal order is a valid linearization.
func (sl *ShardedLedger) journalAppend(op ledgerOp) {
	if sl.journal == nil {
		return
	}
	op.placement = append([]PlacedStage(nil), op.placement...)
	sl.journal.mu.Lock()
	sl.journal.ops = append(sl.journal.ops, op)
	sl.journal.mu.Unlock()
}
