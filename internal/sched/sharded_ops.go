package sched

import (
	"fmt"
	"math/bits"
	"sort"
	"time"
)

// lockRouted acquires the shard locks of a routed job (in ascending index
// order) and revalidates the route under them — a concurrent relocation may
// change the job's shard set between the lookup and the lock. Returns the
// validated mask; ok=false means the job is not in the ledger. The caller
// must unlockMask the returned mask.
func (sl *ShardedLedger) lockRouted(ref JobRef) (uint64, bool) {
	for {
		mask, ok := sl.routeGet(ref)
		if !ok {
			return 0, false
		}
		sl.lockMask(mask)
		cur, stillOK := sl.routeGet(ref)
		if stillOK && cur == mask {
			return mask, true
		}
		sl.unlockMask(mask)
		if !stillOK {
			return 0, false
		}
	}
}

// settleCrossProcs re-evaluates cross jobs on the given processors if any are
// registered there. Caller holds the shard locks owning the processors.
func (sl *ShardedLedger) settleCrossProcs(procs []int) {
	need := false
	for _, p := range procs {
		if sl.crossOnProc[p].Load() > 0 {
			need = true
			break
		}
	}
	if !need {
		return
	}
	sl.crossMu.Lock()
	sl.crossSettleProcs(procs)
	sl.crossMu.Unlock()
}

// ExpireJob removes all remaining non-permanent contributions of the job
// because its absolute deadline passed, mirroring Ledger.ExpireJob. It
// returns the number of contributions removed.
func (sl *ShardedLedger) ExpireJob(ref JobRef) int {
	mask, ok := sl.lockRouted(ref)
	if !ok {
		return 0
	}
	var n int
	if bits.OnesCount64(mask) == 1 {
		n = sl.expireSingleLocked(&sl.shards[bits.TrailingZeros64(mask)], ref)
	} else {
		n = sl.expireMultiLocked(mask, ref)
	}
	sl.unlockMask(mask)
	return n
}

func (sl *ShardedLedger) expireSingleLocked(sh *ledgerShard, ref JobRef) int {
	var touchedBuf [8]int
	sh.beginWrite()
	n, touched, found, kept := sh.l.expireInto(ref, touchedBuf[:0])
	if found {
		for _, p := range touched {
			sl.syncProc(p)
		}
		sl.pushViolated(sh)
		if !kept {
			sl.routeDelete(ref)
		}
		sl.settleCrossProcs(touched)
		sl.journalAppend(ledgerOp{kind: opExpireJob, ref: ref, n: n})
	}
	sh.endWrite()
	return n
}

func (sl *ShardedLedger) expireMultiLocked(mask uint64, ref JobRef) int {
	sl.crossMu.Lock()
	defer sl.crossMu.Unlock()
	cr := sl.cross.jobs[ref]
	if cr == nil {
		return 0
	}
	if cr.permanent {
		// Permanent entries are uniform per job and survive expiry; the job
		// stays in place, exactly like the plain ledger's permanentOnly path.
		sl.journalAppend(ledgerOp{kind: opExpireJob, ref: ref})
		return 0
	}
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for i := range cr.entries {
		if cr.entries[i].removed == 0 {
			touched = touchProc(touched, cr.entries[i].proc)
		}
	}
	sl.beginWriteMask(mask)
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		n += sl.shards[bits.TrailingZeros64(m)].l.ExpireJob(ref)
	}
	for i := range cr.entries {
		if cr.entries[i].removed == 0 {
			cr.entries[i].removed = RemovedExpiry
		}
	}
	sl.crossForget(cr)
	sl.routeDelete(ref)
	for _, p := range touched {
		sl.syncProc(p)
	}
	for m := mask; m != 0; m &= m - 1 {
		sl.pushViolated(&sl.shards[bits.TrailingZeros64(m)])
	}
	sl.crossSettleProcs(touched)
	sl.journalAppend(ledgerOp{kind: opExpireJob, ref: ref, n: n})
	sl.endWriteMask(mask)
	return n
}

// WithdrawJob removes every remaining contribution of one job, including
// permanent reservations, mirroring Ledger.WithdrawJob. It returns the
// number of contributions removed.
func (sl *ShardedLedger) WithdrawJob(ref JobRef) int {
	mask, ok := sl.lockRouted(ref)
	if !ok {
		return 0
	}
	var n int
	if bits.OnesCount64(mask) == 1 {
		n = sl.withdrawSingleLocked(&sl.shards[bits.TrailingZeros64(mask)], ref)
	} else {
		n = sl.withdrawMultiLocked(mask, ref)
	}
	sl.unlockMask(mask)
	return n
}

func (sl *ShardedLedger) withdrawSingleLocked(sh *ledgerShard, ref JobRef) int {
	rec, ok := sh.l.lookupJob(ref)
	if !ok {
		return 0
	}
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for _, e := range rec.entries {
		if e.removed == 0 {
			touched = touchProc(touched, e.proc)
		}
	}
	sh.beginWrite()
	n := sh.l.WithdrawJob(ref)
	for _, p := range touched {
		sl.syncProc(p)
	}
	sl.pushViolated(sh)
	sl.routeDelete(ref)
	sl.settleCrossProcs(touched)
	sl.journalAppend(ledgerOp{kind: opWithdrawJob, ref: ref, n: n})
	sh.endWrite()
	return n
}

func (sl *ShardedLedger) withdrawMultiLocked(mask uint64, ref JobRef) int {
	sl.crossMu.Lock()
	defer sl.crossMu.Unlock()
	cr := sl.cross.jobs[ref]
	if cr == nil {
		return 0
	}
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for i := range cr.entries {
		if cr.entries[i].removed == 0 {
			touched = touchProc(touched, cr.entries[i].proc)
		}
	}
	sl.beginWriteMask(mask)
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		n += sl.shards[bits.TrailingZeros64(m)].l.WithdrawJob(ref)
	}
	for i := range cr.entries {
		if cr.entries[i].removed == 0 {
			cr.entries[i].removed = RemovedWithdrawal
		}
	}
	sl.crossForget(cr)
	sl.routeDelete(ref)
	for _, p := range touched {
		sl.syncProc(p)
	}
	for m := mask; m != 0; m &= m - 1 {
		sl.pushViolated(&sl.shards[bits.TrailingZeros64(m)])
	}
	sl.crossSettleProcs(touched)
	sl.journalAppend(ledgerOp{kind: opWithdrawJob, ref: ref, n: n})
	sl.endWriteMask(mask)
	return n
}

// RemoveTask withdraws every job of one task across all shards, mirroring
// Ledger.RemoveTask. It takes every shard lock in ascending order (the global
// lock order) and returns the number of contributions removed.
func (sl *ShardedLedger) RemoveTask(task string) int {
	all := sl.allMask()
	sl.lockMask(all)
	sl.crossMu.Lock()
	sl.beginWriteMask(all)
	n := 0
	for s := range sl.shards {
		n += sl.shards[s].l.RemoveTask(task)
	}
	for ref, cr := range sl.cross.jobs {
		if ref.Task != task {
			continue
		}
		for i := range cr.entries {
			if cr.entries[i].removed == 0 {
				cr.entries[i].removed = RemovedWithdrawal
			}
		}
		sl.crossForget(cr)
	}
	for p := 0; p < sl.numProcs; p++ {
		sl.syncProc(p)
	}
	for s := range sl.shards {
		sl.pushViolated(&sl.shards[s])
	}
	for _, cr := range sl.cross.jobs {
		sl.crossReflag(cr)
	}
	for i := range sl.routes {
		st := &sl.routes[i]
		st.mu.Lock()
		for ref := range st.m {
			if ref.Task == task {
				delete(st.m, ref)
			}
		}
		st.mu.Unlock()
	}
	sl.journalAppend(ledgerOp{kind: opRemoveTask, task: task, n: n})
	sl.endWriteMask(all)
	sl.crossMu.Unlock()
	sl.unlockMask(all)
	return n
}

// MarkComplete records that the subjob of the given stage finished executing,
// mirroring Ledger.MarkComplete. Unknown references are ignored.
func (sl *ShardedLedger) MarkComplete(ref JobRef, stage int) {
	mask, ok := sl.lockRouted(ref)
	if !ok {
		return
	}
	defer sl.unlockMask(mask)
	if bits.OnesCount64(mask) == 1 {
		sh := &sl.shards[bits.TrailingZeros64(mask)]
		sh.l.MarkComplete(ref, stage)
		sl.pushViolated(sh)
		sl.journalAppend(ledgerOp{kind: opMarkComplete, ref: ref, stage: stage})
		return
	}
	sl.crossMu.Lock()
	for m := mask; m != 0; m &= m - 1 {
		sh := &sl.shards[bits.TrailingZeros64(m)]
		sh.l.MarkComplete(ref, stage)
		sl.pushViolated(sh)
	}
	if cr := sl.cross.jobs[ref]; cr != nil {
		for i := range cr.entries {
			if cr.entries[i].stage == stage {
				cr.entries[i].completed = true
			}
		}
		sl.crossReflag(cr)
	}
	sl.journalAppend(ledgerOp{kind: opMarkComplete, ref: ref, stage: stage})
	sl.crossMu.Unlock()
}

// ResetEntry applies the idle resetting rule to a single reported
// contribution, mirroring Ledger.ResetEntry. It returns true if utilization
// was released.
func (sl *ShardedLedger) ResetEntry(r EntryRef) bool {
	mask, ok := sl.lockRouted(r.Ref)
	if !ok {
		return false
	}
	defer sl.unlockMask(mask)
	if bits.OnesCount64(mask) == 1 {
		sh := &sl.shards[bits.TrailingZeros64(mask)]
		released := sh.l.ResetEntry(r)
		if released {
			sh.beginWrite()
			sl.syncProc(r.Proc)
			sl.pushViolated(sh)
			sh.endWrite()
			var pb [1]int
			pb[0] = r.Proc
			sl.settleCrossProcs(pb[:])
		}
		sl.journalAppend(ledgerOp{kind: opResetEntry, ref: r.Ref, entry: r, decision: released})
		return released
	}
	sl.crossMu.Lock()
	defer sl.crossMu.Unlock()
	released := false
	if r.Proc >= 0 && r.Proc < sl.numProcs {
		if s := sl.shardOf(r.Proc); mask&(1<<uint(s)) != 0 {
			sh := &sl.shards[s]
			released = sh.l.ResetEntry(r)
			if released {
				sh.beginWrite()
				sl.syncProc(r.Proc)
				sl.pushViolated(sh)
				sh.endWrite()
				if cr := sl.cross.jobs[r.Ref]; cr != nil {
					for i := range cr.entries {
						if cr.entries[i].stage == r.Stage && cr.entries[i].proc == r.Proc {
							if cr.entries[i].removed == 0 {
								cr.entries[i].removed = RemovedIdleReset
							}
							break
						}
					}
					sl.crossReflag(cr)
				}
				var pb [1]int
				pb[0] = r.Proc
				sl.crossSettleProcs(pb[:])
			}
		}
	}
	sl.journalAppend(ledgerOp{kind: opResetEntry, ref: r.Ref, entry: r, decision: released})
	return released
}

// ResetReported applies one idle-resetting report entry — MarkComplete
// followed by ResetEntry as a single operation — mirroring
// Ledger.ResetReported.
func (sl *ShardedLedger) ResetReported(r EntryRef) bool {
	mask, ok := sl.lockRouted(r.Ref)
	if !ok {
		return false
	}
	defer sl.unlockMask(mask)
	if bits.OnesCount64(mask) == 1 {
		sh := &sl.shards[bits.TrailingZeros64(mask)]
		released := sh.l.ResetReported(r)
		// The MarkComplete half mutates counted state even when the reset
		// half fails, so the violated push is unconditional.
		sl.pushViolated(sh)
		if released {
			sh.beginWrite()
			sl.syncProc(r.Proc)
			sh.endWrite()
			var pb [1]int
			pb[0] = r.Proc
			sl.settleCrossProcs(pb[:])
		}
		sl.journalAppend(ledgerOp{kind: opResetReported, ref: r.Ref, entry: r, decision: released})
		return released
	}
	sl.crossMu.Lock()
	defer sl.crossMu.Unlock()
	// The plain ledger marks the stage complete across the whole job before
	// resetting the single entry; replicate on every involved shard, then
	// reset on the entry's owner shard.
	for m := mask; m != 0; m &= m - 1 {
		sl.shards[bits.TrailingZeros64(m)].l.MarkComplete(r.Ref, r.Stage)
	}
	cr := sl.cross.jobs[r.Ref]
	if cr != nil {
		for i := range cr.entries {
			if cr.entries[i].stage == r.Stage {
				cr.entries[i].completed = true
			}
		}
	}
	released := false
	if r.Proc >= 0 && r.Proc < sl.numProcs {
		if s := sl.shardOf(r.Proc); mask&(1<<uint(s)) != 0 {
			sh := &sl.shards[s]
			released = sh.l.ResetEntry(r)
			if released {
				sh.beginWrite()
				sl.syncProc(r.Proc)
				sh.endWrite()
				if cr != nil {
					for i := range cr.entries {
						if cr.entries[i].stage == r.Stage && cr.entries[i].proc == r.Proc {
							if cr.entries[i].removed == 0 {
								cr.entries[i].removed = RemovedIdleReset
							}
							break
						}
					}
				}
			}
		}
	}
	for m := mask; m != 0; m &= m - 1 {
		sl.pushViolated(&sl.shards[bits.TrailingZeros64(m)])
	}
	if cr != nil {
		sl.crossReflag(cr)
	}
	if released {
		var pb [1]int
		pb[0] = r.Proc
		sl.crossSettleProcs(pb[:])
	}
	sl.journalAppend(ledgerOp{kind: opResetReported, ref: r.Ref, entry: r, decision: released})
	return released
}

// CompletedOn returns the completed, still-active contributions on the given
// processor, mirroring Ledger.CompletedOn. Entries on a processor live only
// in the shard owning it, so one shard lock suffices.
func (sl *ShardedLedger) CompletedOn(proc int, includePeriodic bool) []EntryRef {
	if proc < 0 || proc >= sl.numProcs {
		return nil
	}
	sh := &sl.shards[sl.procShard[proc]]
	sh.mu.Lock()
	out := sh.l.CompletedOn(proc, includePeriodic)
	sh.mu.Unlock()
	return out
}

// entrySnap is a detached copy of one ledger entry, used to move a job's
// records between shard ledgers during cross-shard relocation.
type entrySnap struct {
	stage     int
	proc      int
	amount    float64
	kind      TaskKind
	permanent bool
	expiry    time.Duration
	completed bool
	removed   RemovalReason
}

// extractJob detaches a job from the ledger, returning snapshots of its
// entries (including completed and removed ones) and releasing its active
// utilization without recording a removal — the job is moving, not ending.
// Returns nil when the job is unknown.
func (l *Ledger) extractJob(ref JobRef) []entrySnap {
	rec, ok := l.lookupJob(ref)
	if !ok {
		return nil
	}
	snaps := make([]entrySnap, 0, len(rec.entries))
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for _, e := range rec.entries {
		snaps = append(snaps, entrySnap{
			stage: e.stage, proc: e.proc, amount: e.amount, kind: e.kind,
			permanent: e.permanent, expiry: e.expiry,
			completed: e.completed, removed: e.removed,
		})
		if e.removed == 0 {
			l.procEntryRemove(e)
			l.util[e.proc] -= e.amount
			touched = touchProc(touched, e.proc)
			// Mark so forgetJob does not double-remove the entry from the
			// processor index; the snapshot above preserved the real state.
			e.removed = RemovedRelocation
		}
	}
	for _, p := range touched {
		l.settleProc(p)
	}
	l.forgetJob(rec)
	return snaps
}

// importJob attaches previously extracted entry snapshots as a job record.
// The caller guarantees ref is not already present.
func (l *Ledger) importJob(ref JobRef, snaps []entrySnap) {
	if len(snaps) == 0 {
		return
	}
	k := jobKey{l.internTask(ref.Task), ref.Job}
	rec := l.allocRec()
	var touchedBuf [8]int
	touched := touchedBuf[:0]
	for i := range snaps {
		e := l.allocEntry()
		e.ref = ref
		e.stage = snaps[i].stage
		e.proc = snaps[i].proc
		e.amount = snaps[i].amount
		e.kind = snaps[i].kind
		e.permanent = snaps[i].permanent
		e.expiry = snaps[i].expiry
		e.completed = snaps[i].completed
		e.removed = snaps[i].removed
		rec.entries = append(rec.entries, e)
		if e.removed == 0 {
			l.procEntryAdd(e)
			l.util[e.proc] += e.amount
			touched = touchProc(touched, e.proc)
		}
	}
	for _, p := range touched {
		l.settleProc(p)
	}
	l.indexJob(k, rec)
	l.reindex(rec)
}

// crossInsertSnaps registers a cross-shard job rebuilt from relocation
// snapshots (unlike crossInsert, the entries carry completed/removed state).
// Caller holds crossMu and the involved shard locks.
func (sl *ShardedLedger) crossInsertSnaps(ref JobRef, mask uint64, snaps []entrySnap) {
	cr := &crossRec{ref: ref, mask: mask, permanent: snaps[0].permanent, kind: snaps[0].kind}
	cr.entries = make([]crossEntry, len(snaps))
	for i := range snaps {
		cr.entries[i] = crossEntry{
			stage: snaps[i].stage, proc: snaps[i].proc,
			completed: snaps[i].completed, removed: snaps[i].removed,
		}
	}
	for i := range snaps {
		if snaps[i].removed == 0 {
			cr.procs = touchProc(cr.procs, snaps[i].proc)
		}
	}
	sl.cross.jobs[ref] = cr
	for _, p := range cr.procs {
		sl.cross.byProc[p] = append(sl.cross.byProc[p], cr)
		sl.crossOnProc[p].Add(1)
	}
	sl.crossCount.Add(1)
	sl.crossReflag(cr)
}

// Relocate moves the active contributions of a job to a new placement,
// mirroring Ledger.Relocate. Same-shard relocations delegate to the plain
// ledger; relocations that enter or leave a shard extract the job's records
// and reinsert them under every involved shard lock.
func (sl *ShardedLedger) Relocate(ref JobRef, placement []PlacedStage) error {
	for _, p := range placement {
		if p.Proc < 0 || p.Proc >= sl.numProcs {
			return fmt.Errorf("sched: relocate: job %s stage %d on unknown processor %d", ref, p.Stage, p.Proc)
		}
	}
	for {
		mask, ok := sl.routeGet(ref)
		if !ok {
			return fmt.Errorf("sched: relocate: job %s not in ledger", ref)
		}
		lockM := mask | sl.maskOf(placement)
		sl.lockMask(lockM)
		cur, stillOK := sl.routeGet(ref)
		if !stillOK {
			sl.unlockMask(lockM)
			return fmt.Errorf("sched: relocate: job %s not in ledger", ref)
		}
		if cur != mask {
			sl.unlockMask(lockM)
			continue
		}
		err := sl.relocateLocked(mask, lockM, ref, placement)
		sl.unlockMask(lockM)
		return err
	}
}

func (sl *ShardedLedger) relocateLocked(oldMask, lockM uint64, ref JobRef, placement []PlacedStage) error {
	if bits.OnesCount64(oldMask) == 1 && (len(placement) == 0 || sl.maskOf(placement)&^oldMask == 0) {
		// Same-shard relocation: pure delegation, bit-identical to the plain
		// ledger (the only path a one-shard ledger ever takes, which is why
		// the job is looked up here: one shard has no route to vouch for it).
		sh := &sl.shards[bits.TrailingZeros64(oldMask)]
		rec, ok := sh.l.lookupJob(ref)
		if !ok {
			return fmt.Errorf("sched: relocate: job %s not in ledger", ref)
		}
		var touchedBuf [8]int
		touched := touchedBuf[:0]
		for _, e := range rec.entries {
			if e.removed == 0 {
				touched = touchProc(touched, e.proc)
			}
		}
		for _, p := range placement {
			touched = touchProc(touched, p.Proc)
		}
		sh.beginWrite()
		err := sh.l.Relocate(ref, placement)
		if err == nil {
			for _, p := range touched {
				sl.syncProc(p)
			}
			sl.pushViolated(sh)
			sl.settleCrossProcs(touched)
			sl.journalAppend(ledgerOp{kind: opRelocate, ref: ref, placement: placement})
		}
		sh.endWrite()
		return err
	}
	if len(placement) == 0 {
		// No stage can move; the plain ledger is a no-op after the lookup.
		sl.journalAppend(ledgerOp{kind: opRelocate, ref: ref, placement: placement})
		return nil
	}

	byStage := make(map[int]PlacedStage, len(placement))
	for _, p := range placement {
		byStage[p.Stage] = p
	}
	sl.crossMu.Lock()
	defer sl.crossMu.Unlock()
	sl.beginWriteMask(lockM)
	defer sl.endWriteMask(lockM)

	var snaps []entrySnap
	for m := oldMask; m != 0; m &= m - 1 {
		snaps = append(snaps, sl.shards[bits.TrailingZeros64(m)].l.extractJob(ref)...)
	}
	if len(snaps) == 0 {
		sl.routeDelete(ref)
		return fmt.Errorf("sched: relocate: job %s not in ledger", ref)
	}
	// Reassemble in stage order: partial extraction visits shards in index
	// order, but placements are recorded stage-ordered everywhere.
	sort.SliceStable(snaps, func(i, j int) bool { return snaps[i].stage < snaps[j].stage })

	var touchedBuf [16]int
	touched := touchedBuf[:0]
	for i := range snaps {
		if snaps[i].removed == 0 {
			touched = touchProc(touched, snaps[i].proc)
		}
	}
	for i := range snaps {
		if snaps[i].removed != 0 {
			continue
		}
		if p, ok := byStage[snaps[i].stage]; ok && p.Proc != snaps[i].proc {
			snaps[i].proc = p.Proc
			snaps[i].amount = p.Util
			touched = touchProc(touched, p.Proc)
		}
	}
	var newMask uint64
	for i := range snaps {
		newMask |= 1 << uint(sl.procShard[snaps[i].proc])
	}
	var partBuf [8]entrySnap
	for m := newMask; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		part := partBuf[:0]
		for i := range snaps {
			if int(sl.procShard[snaps[i].proc]) == s {
				part = append(part, snaps[i])
			}
		}
		sl.shards[s].l.importJob(ref, part)
	}
	if cr := sl.cross.jobs[ref]; cr != nil {
		sl.crossForget(cr)
	}
	if bits.OnesCount64(newMask) > 1 {
		sl.crossInsertSnaps(ref, newMask, snaps)
	}
	for _, p := range touched {
		sl.syncProc(p)
	}
	for m := lockM; m != 0; m &= m - 1 {
		sl.pushViolated(&sl.shards[bits.TrailingZeros64(m)])
	}
	sl.crossSettleProcs(touched)
	sl.routeSet(ref, newMask)
	sl.journalAppend(ledgerOp{kind: opRelocate, ref: ref, placement: placement})
	return nil
}
