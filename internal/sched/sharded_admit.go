package sched

import (
	"fmt"
	"math/bits"
	"time"
)

// crossCounted reports whether a cross job participates in the admission
// test: it still has an uncompleted stage (in flight) and at least one active
// contribution — the same predicate jobRec.inFlight()/active() applies to
// shard-local jobs.
func crossCounted(cr *crossRec) bool {
	inFlight, active := false, false
	for i := range cr.entries {
		if !cr.entries[i].completed {
			inFlight = true
		}
		if cr.entries[i].removed == 0 {
			active = true
		}
	}
	return inFlight && active
}

// crossSumExceeds evaluates a cross job's full AUB condition exactly as the
// plain ledger evaluates a signature group: counts[i]·term over the sorted
// distinct processors of the active entries, with the early break once the
// running sum exceeds the bound. touched/tent, when non-nil, substitute
// tentative terms for the candidate's perturbed processors. Caller holds
// crossMu (the scratch arrays live on the cross set).
func (sl *ShardedLedger) crossSumExceeds(cr *crossRec, touched []int, tent []float64) bool {
	procs := sl.cross.sumProcs[:0]
	counts := sl.cross.sumCounts[:0]
	for i := range cr.entries {
		if cr.entries[i].removed != 0 {
			continue
		}
		q := cr.entries[i].proc
		found := false
		for j := range procs {
			if procs[j] == q {
				counts[j]++
				found = true
				break
			}
		}
		if !found {
			procs = append(procs, q)
			counts = append(counts, 1)
		}
	}
	for i := 1; i < len(procs); i++ {
		for k := i; k > 0 && procs[k] < procs[k-1]; k-- {
			procs[k], procs[k-1] = procs[k-1], procs[k]
			counts[k], counts[k-1] = counts[k-1], counts[k]
		}
	}
	sl.cross.sumProcs, sl.cross.sumCounts = procs, counts
	var s float64
	for i, q := range procs {
		t := sl.mirrorTerm(q)
		for j, tp := range touched {
			if tp == q {
				t = tent[j]
				break
			}
		}
		s += float64(counts[i]) * t
		if s > 1 {
			return true
		}
	}
	return false
}

// crossReflag recomputes one cross job's violation flag from the current
// mirror terms, maintaining the global violated counter. Caller holds
// crossMu.
func (sl *ShardedLedger) crossReflag(cr *crossRec) {
	now := crossCounted(cr) && sl.crossSumExceeds(cr, nil, nil)
	if now != cr.violated {
		if now {
			sl.violated.Add(1)
		} else {
			sl.violated.Add(-1)
		}
		cr.violated = now
	}
}

// crossSettleProcs re-evaluates every cross job registered on the given
// processors after their utilizations changed. Caller holds crossMu and the
// locks of the shards owning the processors (so the mirrors are current).
func (sl *ShardedLedger) crossSettleProcs(procs []int) {
	sl.cross.stamp++
	for _, p := range procs {
		for _, cr := range sl.cross.byProc[p] {
			if cr.stamp == sl.cross.stamp {
				continue
			}
			cr.stamp = sl.cross.stamp
			sl.crossReflag(cr)
		}
	}
}

// crossCheckAdmit evaluates every counted cross job touching a perturbed
// processor under the candidate's tentative terms. Caller holds crossMu and
// the candidate's shard locks.
func (sl *ShardedLedger) crossCheckAdmit(touched []int, tent []float64) bool {
	sl.cross.stamp++
	for _, p := range touched {
		for _, cr := range sl.cross.byProc[p] {
			if cr.stamp == sl.cross.stamp {
				continue
			}
			cr.stamp = sl.cross.stamp
			if !crossCounted(cr) {
				continue
			}
			if sl.crossSumExceeds(cr, touched, tent) {
				return false
			}
		}
	}
	return true
}

// crossInsert registers a cross-shard job from its placement. Caller holds
// crossMu and the involved shard locks.
func (sl *ShardedLedger) crossInsert(ref JobRef, mask uint64, kind TaskKind, placement []PlacedStage, permanent bool) {
	cr := &crossRec{ref: ref, mask: mask, permanent: permanent, kind: kind}
	cr.entries = make([]crossEntry, len(placement))
	for i, p := range placement {
		cr.entries[i] = crossEntry{stage: p.Stage, proc: p.Proc}
	}
	for _, p := range placement {
		seen := false
		for _, q := range cr.procs {
			if q == p.Proc {
				seen = true
				break
			}
		}
		if !seen {
			cr.procs = append(cr.procs, p.Proc)
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

// crossForget unregisters a cross job. Caller holds crossMu.
func (sl *ShardedLedger) crossForget(cr *crossRec) {
	if cr.violated {
		sl.violated.Add(-1)
		cr.violated = false
	}
	for _, p := range cr.procs {
		s := sl.cross.byProc[p]
		for i, c := range s {
			if c == cr {
				s[i] = s[len(s)-1]
				s[len(s)-1] = nil
				sl.cross.byProc[p] = s[:len(s)-1]
				break
			}
		}
		sl.crossOnProc[p].Add(-1)
	}
	delete(sl.cross.jobs, cr.ref)
	sl.crossCount.Add(-1)
}

// anyCrossOnPlacement reports whether any cross job is registered on a
// processor the placement touches. Caller holds the shard locks owning those
// processors, so a zero count cannot concurrently become nonzero.
func (sl *ShardedLedger) anyCrossOnPlacement(placement []PlacedStage) bool {
	for _, p := range placement {
		if sl.crossOnProc[p.Proc].Load() > 0 {
			return true
		}
	}
	return false
}

// tentativeInto accumulates the candidate's per-processor deltas (in
// placement order, matching the plain ledger's floating-point accumulation)
// and the tentative AUB terms of the perturbed processors, reading
// utilizations through at. The parallel touched/delta/tent slices are
// appended to and returned.
func tentativeInto(placement []PlacedStage, at func(int) float64,
	touched []int, delta, tent []float64) ([]int, []float64, []float64) {
	for _, p := range placement {
		found := false
		for i := range touched {
			if touched[i] == p.Proc {
				delta[i] += p.Util
				found = true
				break
			}
		}
		if !found {
			touched = append(touched, p.Proc)
			delta = append(delta, p.Util)
		}
	}
	for i := range touched {
		tent = append(tent, AUBTerm(at(touched[i])+delta[i]))
	}
	return touched, delta, tent
}

// tentOf returns the tentative term of a perturbed processor.
func tentOf(touched []int, tent []float64, proc int) float64 {
	for i := range touched {
		if touched[i] == proc {
			return tent[i]
		}
	}
	return 0
}

// Admissible evaluates the AUB admission test for a candidate placement
// without mutating the ledger. Decision-equivalent to Ledger.Admissible on
// the same operation history.
func (sl *ShardedLedger) Admissible(placement []PlacedStage) bool {
	if len(placement) == 0 {
		return sl.violated.Load() == 0
	}
	for _, p := range placement {
		if p.Util < 0 {
			// Negative candidates void the monotonicity both the violated
			// short-circuit and the group evaluation rely on; TestAndAdd
			// rejects them, so the test does too.
			return false
		}
	}
	mask := sl.maskOf(placement)
	if bits.OnesCount64(mask) == 1 {
		sh := &sl.shards[bits.TrailingZeros64(mask)]
		sh.mu.Lock()
		ok := sl.violated.Load() == 0 && sh.l.Admissible(placement)
		if ok && sl.anyCrossOnPlacement(placement) {
			var touchedBuf [8]int
			var deltaBuf, tentBuf [8]float64
			touched, delta, tent := tentativeInto(placement,
				func(p int) float64 { return sh.l.util[p] },
				touchedBuf[:0], deltaBuf[:0], tentBuf[:0])
			_ = delta
			sl.crossMu.Lock()
			ok = sl.crossCheckAdmit(touched, tent)
			sl.crossMu.Unlock()
		}
		sh.mu.Unlock()
		return ok
	}
	sc := sl.scratch.Get().(*multiScratch)
	sl.lockMask(mask)
	ok := sl.admitEvalLocked(mask, placement, sc, true)
	sl.unlockMask(mask)
	sl.putScratch(sc)
	return ok
}

// putScratch resets and returns a multiScratch to the pool.
func (sl *ShardedLedger) putScratch(sc *multiScratch) {
	sc.part = sc.part[:0]
	sc.touched = sc.touched[:0]
	sc.delta = sc.delta[:0]
	sc.tent = sc.tent[:0]
	sc.procs = sc.procs[:0]
	sl.scratch.Put(sc)
}

// partialInto filters a placement down to the stages owned by one shard,
// appending into buf.
func (sl *ShardedLedger) partialInto(placement []PlacedStage, shard int, buf []PlacedStage) []PlacedStage {
	for _, p := range placement {
		if int(sl.procShard[p.Proc]) == shard {
			buf = append(buf, p)
		}
	}
	return buf
}

// admitEvalLocked evaluates a multi-shard candidate with the involved shard
// locks held: the candidate's own condition over real utilizations, the
// global violated short-circuit, each shard's local perturbed-group check
// against the candidate's partial placement, and the cross-registry check
// when any perturbed processor carries cross jobs. takeCross selects whether
// this call acquires crossMu itself (Admissible) or runs with it already
// held by the caller (the commit path keeps it across evaluation and
// insert).
func (sl *ShardedLedger) admitEvalLocked(mask uint64, placement []PlacedStage, sc *multiScratch, takeCross bool) bool {
	if sl.violated.Load() > 0 {
		return false
	}
	sc.touched, sc.delta, sc.tent = tentativeInto(placement,
		func(p int) float64 { return sl.shards[sl.procShard[p]].l.util[p] },
		sc.touched[:0], sc.delta[:0], sc.tent[:0])
	var sum float64
	for _, p := range placement {
		sum += tentOf(sc.touched, sc.tent, p.Proc)
	}
	if sum > 1 {
		return false
	}
	for m := mask; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		sc.part = sl.partialInto(placement, s, sc.part[:0])
		if !sl.shards[s].l.Admissible(sc.part) {
			return false
		}
	}
	needCross := false
	for _, p := range sc.touched {
		if sl.crossOnProc[p].Load() > 0 {
			needCross = true
			break
		}
	}
	if !needCross {
		return true
	}
	if takeCross {
		sl.crossMu.Lock()
		defer sl.crossMu.Unlock()
	}
	return sl.crossCheckAdmit(sc.touched, sc.tent)
}

// validatePlacement mirrors Ledger.AddJob's argument checks.
func (sl *ShardedLedger) validatePlacement(ref JobRef, placement []PlacedStage) error {
	for _, p := range placement {
		if p.Proc < 0 || p.Proc >= sl.numProcs {
			return fmt.Errorf("sched: job %s stage %d placed on unknown processor %d", ref, p.Stage, p.Proc)
		}
		if p.Util < 0 {
			return fmt.Errorf("sched: job %s stage %d has negative utilization %g", ref, p.Stage, p.Util)
		}
	}
	return nil
}

// addSingleLocked commits a single-shard job. Caller holds the shard lock.
func (sl *ShardedLedger) addSingleLocked(sh *ledgerShard, mask uint64, ref JobRef, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) error {
	if !sl.routePutIfAbsent(ref, mask) {
		return fmt.Errorf("sched: job %s already in ledger", ref)
	}
	sh.beginWrite()
	if err := sh.l.AddJob(ref, kind, placement, permanent, expiry); err != nil {
		sh.endWrite()
		sl.routeDelete(ref)
		return err
	}
	sl.syncPlacementProcs(placement)
	sl.pushViolated(sh)
	if sl.anyCrossOnPlacement(placement) {
		var procsBuf [8]int
		procs := procsBuf[:0]
		for _, p := range placement {
			procs = touchProc(procs, p.Proc)
		}
		sl.crossMu.Lock()
		sl.crossSettleProcs(procs)
		sl.crossMu.Unlock()
	}
	sh.endWrite()
	return nil
}

// addMultiLocked commits a cross-shard job as per-shard partials plus a
// cross-registry record. Caller holds every shard lock in mask and crossMu.
func (sl *ShardedLedger) addMultiLocked(mask uint64, ref JobRef, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration, sc *multiScratch) error {
	if !sl.routePutIfAbsent(ref, mask) {
		return fmt.Errorf("sched: job %s already in ledger", ref)
	}
	// Partial dup check: the same ref could already exist shard-locally
	// without a route only through a bug; AddJob below would catch it, but
	// after a sibling shard already committed. Check first so commit cannot
	// half-apply.
	for m := mask; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		if _, ok := sl.shards[s].l.lookupJob(ref); ok {
			sl.routeDelete(ref)
			return fmt.Errorf("sched: job %s already in ledger", ref)
		}
	}
	sl.beginWriteMask(mask)
	for m := mask; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		sc.part = sl.partialInto(placement, s, sc.part[:0])
		if err := sl.shards[s].l.AddJob(ref, kind, sc.part, permanent, expiry); err != nil {
			// Unreachable after validation and the dup check; surface loudly.
			panic(fmt.Sprintf("sched: sharded partial add %s: %v", ref, err))
		}
	}
	sl.syncPlacementProcs(placement)
	for m := mask; m != 0; m &= m - 1 {
		sl.pushViolated(&sl.shards[bits.TrailingZeros64(m)])
	}
	sl.crossInsert(ref, mask, kind, placement, permanent)
	sc.procs = sc.procs[:0]
	for _, p := range placement {
		sc.procs = touchProc(sc.procs, p.Proc)
	}
	sl.crossSettleProcs(sc.procs)
	sl.endWriteMask(mask)
	return nil
}

// AddJob records a job's contributions unconditionally (no admission test),
// mirroring Ledger.AddJob. Tests and benchmarks use it to construct ledger
// states, including overloaded ones.
func (sl *ShardedLedger) AddJob(ref JobRef, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) error {
	if err := sl.validatePlacement(ref, placement); err != nil {
		return err
	}
	mask := sl.maskOf(placement)
	if bits.OnesCount64(mask) == 1 {
		sh := &sl.shards[bits.TrailingZeros64(mask)]
		sh.mu.Lock()
		err := sl.addSingleLocked(sh, mask, ref, kind, placement, permanent, expiry)
		if err == nil {
			sl.journalAppend(ledgerOp{kind: opAddJob, ref: ref, taskKind: kind, placement: placement, permanent: permanent, expiry: expiry})
		}
		sh.mu.Unlock()
		return err
	}
	sc := sl.scratch.Get().(*multiScratch)
	sl.lockMask(mask)
	sl.crossMu.Lock()
	err := sl.addMultiLocked(mask, ref, kind, placement, permanent, expiry, sc)
	if err == nil {
		sl.journalAppend(ledgerOp{kind: opAddJob, ref: ref, taskKind: kind, placement: placement, permanent: permanent, expiry: expiry})
	}
	sl.crossMu.Unlock()
	sl.unlockMask(mask)
	sl.putScratch(sc)
	return err
}

// TestAndAdd atomically runs the AUB admission test and, on success, records
// the job — the concurrent-safe replacement for an Admissible/AddJob pair,
// which would admit two conflicting candidates under concurrency. It returns
// whether the job was admitted; the error reports argument problems or a
// double admission (both also rejections).
//
//rtmw:noalloc
func (sl *ShardedLedger) TestAndAdd(ref JobRef, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) (bool, error) {
	if err := sl.validatePlacement(ref, placement); err != nil {
		return false, err
	}
	if len(placement) == 0 {
		// An empty placement admits iff nothing is violated; record the empty
		// job in shard 0 for parity with the plain ledger.
		sh := &sl.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if sl.violated.Load() > 0 {
			sl.journalAppend(ledgerOp{kind: opTestAndAdd, ref: ref, taskKind: kind, permanent: permanent, expiry: expiry, decision: false})
			return false, nil
		}
		err := sl.addSingleLocked(sh, 1, ref, kind, placement, permanent, expiry)
		if err != nil {
			return false, err
		}
		sl.journalAppend(ledgerOp{kind: opTestAndAdd, ref: ref, taskKind: kind, permanent: permanent, expiry: expiry, decision: true})
		return true, nil
	}
	mask := sl.maskOf(placement)
	if bits.OnesCount64(mask) == 1 {
		sh := &sl.shards[bits.TrailingZeros64(mask)]
		sh.mu.Lock()
		ok, err := sl.testAndAddShardLocked(sh, mask, ref, kind, placement, permanent, expiry)
		sh.mu.Unlock()
		return ok, err
	}
	return sl.testAndAddMulti(mask, ref, kind, placement, permanent, expiry)
}

// testAndAddShardLocked is the single-shard admission fast path: evaluate and
// commit entirely inside one shard lock (plus crossMu only when cross jobs
// touch the candidate's processors). Zero allocations on the steady-state
// path.
//
//rtmw:noalloc
func (sl *ShardedLedger) testAndAddShardLocked(sh *ledgerShard, mask uint64, ref JobRef, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) (bool, error) {
	ok := sl.violated.Load() == 0 && sh.l.Admissible(placement)
	crossTouched := ok && sl.anyCrossOnPlacement(placement)
	if crossTouched {
		var touchedBuf [8]int
		var deltaBuf, tentBuf [8]float64
		touched, _, tent := tentativeInto(placement,
			//rtmw:ignore noalloc accessor stays on the stack: tentativeInto's at param never escapes
			func(p int) float64 { return sh.l.util[p] },
			touchedBuf[:0], deltaBuf[:0], tentBuf[:0])
		sl.crossMu.Lock()
		ok = sl.crossCheckAdmit(touched, tent)
		if ok {
			// Keep crossMu across the commit: the admitted utilization
			// changes these processors' terms, and the registered cross jobs
			// must re-settle within the same critical section the decision
			// was made in.
			err := sl.addSingleCrossLocked(sh, mask, ref, kind, placement, permanent, expiry, touched)
			sl.journalDecision(ref, kind, placement, permanent, expiry, err == nil)
			sl.crossMu.Unlock()
			return err == nil, err
		}
		sl.journalDecision(ref, kind, placement, permanent, expiry, false)
		sl.crossMu.Unlock()
		return false, nil
	}
	if ok {
		err := sl.addSingleLocked(sh, mask, ref, kind, placement, permanent, expiry)
		sl.journalDecision(ref, kind, placement, permanent, expiry, err == nil)
		return err == nil, err
	}
	sl.journalDecision(ref, kind, placement, permanent, expiry, false)
	return false, nil
}

// addSingleCrossLocked commits a single-shard job while crossMu is already
// held (the candidate's processors carry cross jobs).
func (sl *ShardedLedger) addSingleCrossLocked(sh *ledgerShard, mask uint64, ref JobRef, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration, touched []int) error {
	if !sl.routePutIfAbsent(ref, mask) {
		return fmt.Errorf("sched: job %s already in ledger", ref)
	}
	sh.beginWrite()
	if err := sh.l.AddJob(ref, kind, placement, permanent, expiry); err != nil {
		sh.endWrite()
		sl.routeDelete(ref)
		return err
	}
	sl.syncPlacementProcs(placement)
	sl.pushViolated(sh)
	sl.crossSettleProcs(touched)
	sh.endWrite()
	return nil
}

// journalDecision records a TestAndAdd outcome.
func (sl *ShardedLedger) journalDecision(ref JobRef, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration, ok bool) {
	sl.journalAppend(ledgerOp{kind: opTestAndAdd, ref: ref, taskKind: kind, placement: placement, permanent: permanent, expiry: expiry, decision: ok})
}

// crossAdmitRetries bounds the optimistic epoch-snapshot attempts before the
// ordered-lock path runs unconditionally.
const crossAdmitRetries = 2

// testAndAddMulti admits a cross-shard candidate: optimistic lock-free
// rejection from a seqlock-validated snapshot of the utilization mirrors,
// then the ordered-lock evaluate-and-commit path.
func (sl *ShardedLedger) testAndAddMulti(mask uint64, ref JobRef, kind TaskKind, placement []PlacedStage, permanent bool, expiry time.Duration) (bool, error) {
	// Optimistic pre-check: the candidate's own condition, computed from the
	// atomic mirrors with no lock held. A consistent epoch snapshot across
	// the involved shards means the mirrors describe a real ledger state, so
	// a failing condition can reject immediately — admission only ever adds
	// utilization, so the condition cannot improve while we look. Journaled
	// runs skip this: a lock-free rejection has no lock to order its journal
	// entry under.
	if sl.journal == nil {
		var snapBuf [maxShards]uint64
		for try := 0; try <= crossAdmitRetries; try++ {
			consistent := true
			i := 0
			for m := mask; m != 0; m &= m - 1 {
				e := sl.shards[bits.TrailingZeros64(m)].epoch.Load()
				if e&1 != 0 {
					consistent = false
					break
				}
				snapBuf[i] = e
				i++
			}
			if !consistent {
				sl.epochRetries.Add(1)
				continue
			}
			var touchedBuf [8]int
			var deltaBuf, tentBuf [8]float64
			touched, _, tent := tentativeInto(placement, sl.mirrorUtil,
				touchedBuf[:0], deltaBuf[:0], tentBuf[:0])
			var sum float64
			for _, p := range placement {
				sum += tentOf(touched, tent, p.Proc)
			}
			i = 0
			valid := true
			for m := mask; m != 0; m &= m - 1 {
				if sl.shards[bits.TrailingZeros64(m)].epoch.Load() != snapBuf[i] {
					valid = false
					break
				}
				i++
			}
			if !valid {
				sl.epochRetries.Add(1)
				continue
			}
			if sum > 1 {
				sl.optimisticRejects.Add(1)
				return false, nil
			}
			break
		}
	}

	sc := sl.scratch.Get().(*multiScratch)
	sl.lockMask(mask)
	sl.crossMu.Lock()
	ok := sl.admitEvalLocked(mask, placement, sc, false)
	var err error
	if ok {
		err = sl.addMultiLocked(mask, ref, kind, placement, permanent, expiry, sc)
		ok = err == nil
		if ok {
			sl.crossAdmits.Add(1)
		}
	}
	sl.journalDecision(ref, kind, placement, permanent, expiry, ok)
	sl.crossMu.Unlock()
	sl.unlockMask(mask)
	sl.putScratch(sc)
	return ok, err
}
