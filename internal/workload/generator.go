// Package workload generates the randomized task sets used by the paper's
// evaluation (Section 7): balanced random workloads for Figure 5, imbalanced
// workloads for Figure 6, and the smaller random workloads used for the
// overhead measurements in Section 7.3.
//
// Generation is fully deterministic given Params.Seed, so experiments are
// reproducible and each of the paper's "10 randomly generated task sets"
// corresponds to one seed.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"repro/internal/sched"
)

// Params describes one randomized task-set generation, mirroring the
// workload descriptions in Sections 7.1 and 7.2.
type Params struct {
	// NumAperiodic and NumPeriodic count tasks by kind (the paper uses 4
	// aperiodic + 5 periodic).
	NumAperiodic int
	NumPeriodic  int
	// MinStages and MaxStages bound the uniformly distributed number of
	// subtasks per task (1..5 for Figure 5, 1..3 for Figure 6 and the
	// overhead runs).
	MinStages int
	MaxStages int
	// HomeProcs lists the processors home subtasks are randomly assigned to.
	HomeProcs []int
	// ReplicaProcs lists the processors duplicates are randomly picked from.
	// A replica is never placed on its subtask's home processor; when
	// ReplicaProcs equals HomeProcs the duplicate lands on one of "the other"
	// application processors, as in Section 7.1.
	ReplicaProcs []int
	// TargetUtil is the per-processor synthetic utilization if all tasks
	// arrive simultaneously (0.5 in Section 7.1, 0.7 in Section 7.2).
	// Execution times are scaled per processor to hit it exactly.
	TargetUtil float64
	// MinDeadline and MaxDeadline bound the uniformly distributed end-to-end
	// deadlines (250 ms to 10 s in the paper). Periodic tasks use period =
	// deadline, as in Section 7.1.
	MinDeadline time.Duration
	MaxDeadline time.Duration
	// Seed makes generation deterministic.
	Seed int64
}

// validate checks parameter sanity.
func (p Params) validate() error {
	switch {
	case p.NumAperiodic < 0 || p.NumPeriodic < 0 || p.NumAperiodic+p.NumPeriodic == 0:
		return fmt.Errorf("workload: need at least one task (aperiodic=%d periodic=%d)", p.NumAperiodic, p.NumPeriodic)
	case p.MinStages < 1 || p.MaxStages < p.MinStages:
		return fmt.Errorf("workload: invalid stage bounds [%d, %d]", p.MinStages, p.MaxStages)
	case len(p.HomeProcs) == 0:
		return fmt.Errorf("workload: no home processors")
	case len(p.ReplicaProcs) == 0:
		return fmt.Errorf("workload: no replica processors")
	case p.TargetUtil <= 0 || p.TargetUtil >= 1:
		return fmt.Errorf("workload: target utilization %g out of (0, 1)", p.TargetUtil)
	case p.MinDeadline <= 0 || p.MaxDeadline < p.MinDeadline:
		return fmt.Errorf("workload: invalid deadline bounds [%v, %v]", p.MinDeadline, p.MaxDeadline)
	}
	// A subtask needs at least one candidate replica different from any home
	// processor choice: a pool of one distinct processor that is also a home
	// would leave the replica draw nothing to pick.
	r := p.ReplicaProcs[0]
	if !slices.ContainsFunc(p.ReplicaProcs, func(x int) bool { return x != r }) {
		for _, h := range p.HomeProcs {
			if h == r {
				return fmt.Errorf("workload: replica pool {%d} collides with home processor %d", r, h)
			}
		}
	}
	return nil
}

// Figure5Params returns the Section 7.1 balanced random workload for one of
// the ten task sets: 9 tasks (4 aperiodic, 5 periodic), 1-5 subtasks per
// task over 5 application processors, deadlines uniform in [250 ms, 10 s],
// per-processor synthetic utilization 0.5, and one duplicate per subtask on
// a random other processor.
func Figure5Params(set int) Params {
	return Params{
		NumAperiodic: 4,
		NumPeriodic:  5,
		MinStages:    1,
		MaxStages:    5,
		HomeProcs:    []int{0, 1, 2, 3, 4},
		ReplicaProcs: []int{0, 1, 2, 3, 4},
		TargetUtil:   0.5,
		MinDeadline:  250 * time.Millisecond,
		MaxDeadline:  10 * time.Second,
		Seed:         figureSeed(5, set),
	}
}

// Figure6Params returns the Section 7.2 imbalanced workload for one of the
// ten task sets: all home subtasks on processors {0,1,2} at synthetic
// utilization 0.7, all duplicates on the spare processors {3,4}, and 1-3
// subtasks per task.
func Figure6Params(set int) Params {
	return Params{
		NumAperiodic: 4,
		NumPeriodic:  5,
		MinStages:    1,
		MaxStages:    3,
		HomeProcs:    []int{0, 1, 2},
		ReplicaProcs: []int{3, 4},
		TargetUtil:   0.7,
		MinDeadline:  250 * time.Millisecond,
		MaxDeadline:  10 * time.Second,
		Seed:         figureSeed(6, set),
	}
}

// OverheadParams returns the Section 7.3 workload: as Figure 5 but with 1-3
// subtasks per task over 3 application processors.
func OverheadParams(set int) Params {
	return Params{
		NumAperiodic: 4,
		NumPeriodic:  5,
		MinStages:    1,
		MaxStages:    3,
		HomeProcs:    []int{0, 1, 2},
		ReplicaProcs: []int{0, 1, 2},
		TargetUtil:   0.5,
		MinDeadline:  250 * time.Millisecond,
		MaxDeadline:  10 * time.Second,
		Seed:         figureSeed(7, set),
	}
}

// figureSeed derives a distinct deterministic seed per (figure, set).
func figureSeed(figure, set int) int64 {
	return int64(figure)*1_000_003 + int64(set)*7919 + 1
}

// ScaleParams returns a large-scenario workload for the scalability sweep:
// the Figure 5 shape stretched to procs processors and tasks end-to-end
// tasks, with the paper's 4:5 aperiodic:periodic ratio preserved. Deadlines
// are drawn from [100 ms, 2 s] — shorter than the figure workloads — so a
// horizon of a few virtual seconds already releases several jobs per task
// and the sweep exercises steady-state admission churn at populations the
// paper's five-processor testbed could not host.
func ScaleParams(procs, tasks, set int) Params {
	if procs < 2 {
		procs = 2
	}
	if tasks < 1 {
		tasks = 1
	}
	all := make([]int, procs)
	for i := range all {
		all[i] = i
	}
	aper := tasks * 4 / 9
	return Params{
		NumAperiodic: aper,
		NumPeriodic:  tasks - aper,
		MinStages:    1,
		MaxStages:    3,
		HomeProcs:    all,
		ReplicaProcs: all,
		TargetUtil:   0.5,
		MinDeadline:  100 * time.Millisecond,
		MaxDeadline:  2 * time.Second,
		Seed:         figureSeed(9, set) ^ int64(procs)*2_000_003 ^ int64(tasks)*97,
	}
}

// Generate produces a random task set per the parameters. Periodic task
// phases are staggered uniformly within one period; aperiodic tasks use
// Poisson arrivals with mean interarrival equal to their deadline, which
// makes an aperiodic task's long-run load comparable to a periodic task with
// period = deadline (the paper normalizes both through the "if all tasks
// arrive simultaneously" synthetic utilization).
//
// The generated tasks share backing arrays: the tasks, their subtask lists
// and their replica lists are each cut from one slab, and the IDs from one
// string. Every Subtasks and Replicas slice is capacity-limited to its own
// elements, so appending to one reallocates it instead of writing into a
// neighbour's.
func Generate(p Params) ([]*sched.Task, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	total := p.NumAperiodic + p.NumPeriodic

	// slotOf maps a draw from HomeProcs (an index) to the running weight sum
	// of its processor: duplicate entries share one sum.
	slotOf := make([]int32, len(p.HomeProcs))
	slotByProc := make(map[int]int32, len(p.HomeProcs))
	for i, h := range p.HomeProcs {
		s, ok := slotByProc[h]
		if !ok {
			s = int32(len(slotByProc))
			slotByProc[h] = s
		}
		slotOf[i] = s
	}
	sums := make([]float64, len(slotByProc))

	// Each task's ID is sliced from one string: "A<i>" for the aperiodic
	// tasks, then "P<i>" for the periodic ones.
	idBuf := make([]byte, 0, total*(1+decimalLen(total)))
	for i := 0; i < total; i++ {
		idBuf = appendID(idBuf, i, p.NumAperiodic)
	}
	ids := string(idBuf)

	// The stages of all tasks, in (task, stage) order, with a raw execution
	// weight and the home processor's sum slot each. The weights are scaled
	// per processor afterwards so each processor's synthetic utilization is
	// exactly TargetUtil.
	type stageDraw struct {
		w    float64
		slot int32
	}
	// The mean stage count plus a sixteenth: the total of thousands of
	// uniform draws stays well inside it, so a large set's slabs do not grow.
	expect := total*(p.MinStages+p.MaxStages)/2 + total/16 + 8
	subs := make([]sched.Subtask, 0, expect)
	reps := make([]int, 0, expect)
	draws := make([]stageDraw, 0, expect)

	slab := make([]sched.Task, total)
	tasks := make([]*sched.Task, total)
	off := 0
	for i := range slab {
		t := &slab[i]
		tasks[i] = t
		n := i - p.NumAperiodic
		t.Kind = sched.Periodic
		if i < p.NumAperiodic {
			n = i
			t.Kind = sched.Aperiodic
		}
		idLen := 1 + decimalLen(n)
		t.ID = ids[off : off+idLen]
		off += idLen
		t.Deadline = p.MinDeadline + time.Duration(rng.Int63n(int64(p.MaxDeadline-p.MinDeadline)+1))
		if t.Kind == sched.Periodic {
			t.Period = t.Deadline
			t.Phase = time.Duration(rng.Int63n(int64(t.Period)))
		} else {
			t.MeanInterarrival = t.Deadline
		}
		numStages := p.MinStages + rng.Intn(p.MaxStages-p.MinStages+1)
		for s := 0; s < numStages; s++ {
			hi := rng.Intn(len(p.HomeProcs))
			home := p.HomeProcs[hi]
			reps = append(reps, pickReplica(rng, p.ReplicaProcs, home))
			subs = append(subs, sched.Subtask{Index: s, Processor: home})
			w := rng.Float64()
			for w == 0 {
				w = rng.Float64()
			}
			slot := slotOf[hi]
			sums[slot] += w
			draws = append(draws, stageDraw{w: w, slot: slot})
		}
		// Only the length counts until the slab stops growing.
		t.Subtasks = subs[len(subs)-numStages:]
	}

	// Cut the subtask and replica lists from their slabs, and scale each
	// stage's weight by its processor's sum.
	k := 0
	for i := range slab {
		t := &slab[i]
		n := len(t.Subtasks)
		t.Subtasks = subs[k : k+n : k+n]
		for s := range t.Subtasks {
			st := &t.Subtasks[s]
			st.Replicas = reps[k : k+1 : k+1]
			d := draws[k]
			util := d.w / sums[d.slot] * p.TargetUtil
			exec := time.Duration(util * float64(t.Deadline))
			if exec <= 0 {
				exec = time.Microsecond
			}
			st.Exec = exec
			k++
		}
	}

	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("workload: generated invalid task: %w", err)
		}
	}
	sched.AssignEDMSPriorities(tasks)
	return tasks, nil
}

// appendID appends the ID of task i: "A<i>" for the first numAperiodic
// tasks, "P<i − numAperiodic>" for the rest.
func appendID(buf []byte, i, numAperiodic int) []byte {
	if i < numAperiodic {
		return strconv.AppendInt(append(buf, 'A'), int64(i), 10)
	}
	return strconv.AppendInt(append(buf, 'P'), int64(i-numAperiodic), 10)
}

// decimalLen is the number of decimal digits of n ≥ 0.
func decimalLen(n int) int {
	l := 1
	for ; n >= 10; n /= 10 {
		l++
	}
	return l
}

// pickReplica draws a replica processor different from home.
func pickReplica(rng *rand.Rand, pool []int, home int) int {
	for {
		r := pool[rng.Intn(len(pool))]
		if r != home {
			return r
		}
	}
}

// Scale returns copies of the tasks with every duration (period, deadline,
// phase, mean interarrival, execution times) multiplied by factor. Synthetic
// utilizations are invariant under scaling, so a compressed workload
// exercises the same admission behavior in less wall-clock time — used by
// the live overhead experiments.
func Scale(tasks []*sched.Task, factor float64) []*sched.Task {
	if factor <= 0 {
		panic("workload: non-positive scale factor")
	}
	scaleDur := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * factor)
	}
	out := make([]*sched.Task, len(tasks))
	for i, t := range tasks {
		c := t.Clone()
		c.Period = scaleDur(t.Period)
		c.Deadline = scaleDur(t.Deadline)
		c.Phase = scaleDur(t.Phase)
		c.MeanInterarrival = scaleDur(t.MeanInterarrival)
		for s := range c.Subtasks {
			c.Subtasks[s].Exec = scaleDur(t.Subtasks[s].Exec)
			if c.Subtasks[s].Exec <= 0 {
				c.Subtasks[s].Exec = time.Microsecond
			}
		}
		out[i] = c
	}
	return out
}

// MaxProc returns the highest processor index referenced by the tasks, for
// sizing simulations.
func MaxProc(tasks []*sched.Task) int {
	maxP := 0
	for _, t := range tasks {
		for _, st := range t.Subtasks {
			for _, p := range st.Candidates() {
				if p > maxP {
					maxP = p
				}
			}
		}
	}
	return maxP
}
