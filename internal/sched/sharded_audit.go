package sched

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// ActiveJobs returns the references of jobs that still hold at least one
// active contribution, in deterministic order, mirroring Ledger.ActiveJobs.
// Cross-shard jobs are deduplicated across their partial records.
func (sl *ShardedLedger) ActiveJobs() []JobRef {
	all := sl.allMask()
	sl.lockMask(all)
	seen := make(map[JobRef]struct{})
	var out []JobRef
	for s := range sl.shards {
		for _, ref := range sl.shards[s].l.ActiveJobs() {
			if _, dup := seen[ref]; dup {
				continue
			}
			seen[ref] = struct{}{}
			out = append(out, ref)
		}
	}
	sl.unlockMask(all)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].Job < out[j].Job
	})
	return out
}

// referenceAdmissibleAll is the full-scan admission reference over the whole
// sharded state: every in-flight job's condition recomputed from records,
// with cross-shard jobs evaluated once from the cross registry instead of
// per-partial. Caller holds every shard lock and crossMu.
func (sl *ShardedLedger) referenceAdmissibleAll(placement []PlacedStage) bool {
	delta := make(map[int]float64, len(placement))
	for _, p := range placement {
		delta[p.Proc] += p.Util
	}
	utilAt := func(proc int) float64 {
		return sl.shards[sl.procShard[proc]].l.util[proc] + delta[proc]
	}
	var sum float64
	for _, p := range placement {
		sum += AUBTerm(utilAt(p.Proc))
	}
	if sum > 1 {
		return false
	}
	for s := range sl.shards {
		l := sl.shards[s].l
		for k, rec := range l.jobs {
			if !rec.inFlight() || !rec.active() {
				continue
			}
			ref := JobRef{Task: l.taskNames[k.tid], Job: k.job}
			if _, isCross := sl.cross.jobs[ref]; isCross {
				// Partial record of a cross job; the registry pass below
				// evaluates the full signature.
				continue
			}
			var js float64
			for _, e := range rec.entries {
				if e.removed != 0 {
					continue
				}
				js += AUBTerm(utilAt(e.proc))
				if js > 1 {
					return false
				}
			}
		}
	}
	for _, cr := range sl.cross.jobs {
		if !crossCounted(cr) {
			continue
		}
		var js float64
		for i := range cr.entries {
			if cr.entries[i].removed != 0 {
				continue
			}
			js += AUBTerm(utilAt(cr.entries[i].proc))
			if js > 1 {
				return false
			}
		}
	}
	return true
}

// nearBoundaryAllLocked reports whether any job's AUB sum lies within eps of
// the admission bound, where summation order can flip a decision. Caller
// holds every shard lock and crossMu.
func (sl *ShardedLedger) nearBoundaryAllLocked(eps float64) bool {
	for s := range sl.shards {
		if sl.shards[s].l.nearAUBBoundary(eps) {
			return true
		}
	}
	for _, cr := range sl.cross.jobs {
		if !crossCounted(cr) {
			continue
		}
		var sum float64
		for i := range cr.entries {
			if cr.entries[i].removed == 0 {
				sum += AUBTerm(sl.mirrorUtil(cr.entries[i].proc))
			}
		}
		if math.Abs(sum-1) <= eps {
			return true
		}
	}
	return false
}

// CheckInvariants audits the whole sharded structure: each shard ledger's own
// invariants, processor ownership, the atomic util/term mirrors, the route
// map, the cross registry, and the global violated counter. It takes every
// shard lock in ascending index order (the global lock order), then crossMu.
func (sl *ShardedLedger) CheckInvariants() error {
	all := sl.allMask()
	sl.lockMask(all)
	defer sl.unlockMask(all)
	sl.crossMu.Lock()
	defer sl.crossMu.Unlock()

	shardMask := make(map[JobRef]uint64)
	for s := range sl.shards {
		l := sl.shards[s].l
		if err := l.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		if sl.shards[s].epoch.Load()&1 != 0 {
			return fmt.Errorf("sched: shard %d epoch odd (%d) with no writer", s, sl.shards[s].epoch.Load())
		}
		if sl.shards[s].prevViolated != l.violated {
			return fmt.Errorf("sched: shard %d pushed violated %d, ledger holds %d", s, sl.shards[s].prevViolated, l.violated)
		}
		for k, rec := range l.jobs {
			ref := JobRef{Task: l.taskNames[k.tid], Job: k.job}
			shardMask[ref] |= 1 << uint(s)
			for _, e := range rec.entries {
				if int(sl.procShard[e.proc]) != s {
					return fmt.Errorf("sched: shard %d holds entry %s/%d on processor %d owned by shard %d",
						s, ref, e.stage, e.proc, sl.procShard[e.proc])
				}
			}
		}
	}

	for p := 0; p < sl.numProcs; p++ {
		l := sl.shards[sl.procShard[p]].l
		if got, want := sl.mirrorUtil(p), l.util[p]; math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("sched: processor %d util mirror %g, shard holds %g", p, got, want)
		}
		if got, want := sl.mirrorTerm(p), l.term[p]; math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("sched: processor %d term mirror %g, shard holds %g", p, got, want)
		}
	}
	// Every other shard must carry zero utilization on processors it does not
	// own.
	for s := range sl.shards {
		for p := 0; p < sl.numProcs; p++ {
			if int(sl.procShard[p]) != s && sl.shards[s].l.util[p] != 0 {
				return fmt.Errorf("sched: shard %d carries utilization %g on foreign processor %d", s, sl.shards[s].l.util[p], p)
			}
		}
	}

	// One shard keeps no routes (see routeGet), so there are none to compare.
	if sl.nshards > 1 {
		routed := make(map[JobRef]uint64)
		for i := range sl.routes {
			st := &sl.routes[i]
			st.mu.Lock()
			for ref, mask := range st.m {
				routed[ref] = mask
			}
			st.mu.Unlock()
		}
		if len(routed) != len(shardMask) {
			return fmt.Errorf("sched: route map holds %d jobs, shards hold %d", len(routed), len(shardMask))
		}
		for ref, want := range shardMask {
			if got, ok := routed[ref]; !ok || got != want {
				return fmt.Errorf("sched: job %s routed to mask %#x, shards hold %#x", ref, routed[ref], want)
			}
		}
	}

	// Cross registry: exactly the multi-shard jobs, with entries matching the
	// per-shard partials and correct per-processor registration.
	crossFlags := 0
	for ref, mask := range shardMask {
		cr := sl.cross.jobs[ref]
		if bits.OnesCount64(mask) > 1 && cr == nil {
			return fmt.Errorf("sched: multi-shard job %s missing from cross registry", ref)
		}
		if bits.OnesCount64(mask) == 1 && cr != nil {
			return fmt.Errorf("sched: single-shard job %s present in cross registry", ref)
		}
	}
	if int(sl.crossCount.Load()) != len(sl.cross.jobs) {
		return fmt.Errorf("sched: crossCount %d, registry holds %d", sl.crossCount.Load(), len(sl.cross.jobs))
	}
	for ref, cr := range sl.cross.jobs {
		if cr.mask != shardMask[ref] {
			return fmt.Errorf("sched: cross job %s has mask %#x, shards hold %#x", ref, cr.mask, shardMask[ref])
		}
		type entryState struct {
			stage, proc int
			completed   bool
			removed     RemovalReason
		}
		counts := make(map[entryState]int)
		partials := 0
		for m := cr.mask; m != 0; m &= m - 1 {
			l := sl.shards[bits.TrailingZeros64(m)].l
			rec, ok := l.lookupJob(ref)
			if !ok {
				return fmt.Errorf("sched: cross job %s missing its partial in shard %d", ref, bits.TrailingZeros64(m))
			}
			for _, e := range rec.entries {
				counts[entryState{e.stage, e.proc, e.completed, e.removed}]++
				partials++
			}
		}
		if partials != len(cr.entries) {
			return fmt.Errorf("sched: cross job %s mirrors %d entries, partials hold %d", ref, len(cr.entries), partials)
		}
		for i := range cr.entries {
			st := entryState{cr.entries[i].stage, cr.entries[i].proc, cr.entries[i].completed, cr.entries[i].removed}
			if counts[st] == 0 {
				return fmt.Errorf("sched: cross job %s mirror entry stage %d proc %d disagrees with partials", ref, st.stage, st.proc)
			}
			counts[st]--
		}
		for _, p := range cr.procs {
			found := 0
			for _, c := range sl.cross.byProc[p] {
				if c == cr {
					found++
				}
			}
			if found != 1 {
				return fmt.Errorf("sched: cross job %s registered %d times on processor %d", ref, found, p)
			}
		}
		want := crossCounted(cr) && sl.crossSumExceeds(cr, nil, nil)
		if cr.violated != want {
			return fmt.Errorf("sched: cross job %s violated flag %v, recomputed %v", ref, cr.violated, want)
		}
		if cr.violated {
			crossFlags++
		}
	}
	for p := 0; p < sl.numProcs; p++ {
		if int(sl.crossOnProc[p].Load()) != len(sl.cross.byProc[p]) {
			return fmt.Errorf("sched: processor %d crossOnProc %d, index holds %d", p, sl.crossOnProc[p].Load(), len(sl.cross.byProc[p]))
		}
		for _, cr := range sl.cross.byProc[p] {
			if sl.cross.jobs[cr.ref] != cr {
				return fmt.Errorf("sched: processor %d cross index holds unregistered job %s", p, cr.ref)
			}
		}
	}

	wantViolated := crossFlags
	for s := range sl.shards {
		wantViolated += sl.shards[s].l.violated
	}
	if got := sl.violated.Load(); got != int64(wantViolated) {
		return fmt.Errorf("sched: global violated %d, recomputed %d (shards + %d cross flags)", got, wantViolated, crossFlags)
	}

	// The O(1) violated gate must agree with the full-scan reference on the
	// empty candidate, away from floating-point boundary states.
	fast := sl.violated.Load() == 0
	if ref := sl.referenceAdmissibleAll(nil); fast != ref && !sl.nearBoundaryAllLocked(1e-9) {
		return fmt.Errorf("sched: violated gate says admissible=%v, reference says %v", fast, ref)
	}
	return nil
}
