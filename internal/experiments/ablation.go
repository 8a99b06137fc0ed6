package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/sched"
)

// This file reproduces the comparison behind the paper's Section 2 design
// decision: "aperiodic utilization bound (AUB) has a comparable performance
// to deferrable server, and requires less complex scheduling mechanisms in
// middleware", which is why the configurable services are built on AUB. The
// ablation replays identical Poisson streams of aperiodic jobs through both
// admission techniques and compares accepted utilization ratios.

// AblationOptions parameterizes the AUB-vs-DS comparison.
type AblationOptions struct {
	// Procs is the number of processors.
	Procs int
	// Tasks is the number of aperiodic task streams.
	Tasks int
	// Horizon is the virtual duration of each run.
	Horizon time.Duration
	// TargetUtil is the per-processor offered synthetic load.
	TargetUtil float64
	// ServerUtil is the deferrable server's bandwidth B/P per processor.
	ServerUtil float64
	// Seeds is the number of independent runs to average.
	Seeds int
	// Workers bounds how many seeds replay concurrently. Zero or one runs
	// serially; negative values use one worker per CPU. Each seed owns an
	// independent stream and ledger and lands in its own result slot, so
	// the output is bit-identical for any worker count.
	Workers int
}

// withDefaults fills unset fields.
func (o AblationOptions) withDefaults() AblationOptions {
	if o.Procs == 0 {
		o.Procs = 3
	}
	if o.Tasks == 0 {
		o.Tasks = 9
	}
	if o.Horizon == 0 {
		o.Horizon = 2 * time.Minute
	}
	if o.TargetUtil == 0 {
		o.TargetUtil = 0.5
	}
	if o.ServerUtil == 0 {
		o.ServerUtil = 0.6
	}
	if o.Seeds == 0 {
		o.Seeds = 5
	}
	return o
}

// AblationResult is one technique's outcome.
type AblationResult struct {
	// Technique is "AUB" or "DS".
	Technique string `json:"technique"`
	// AcceptedRatio is the accepted utilization ratio averaged over seeds.
	AcceptedRatio float64 `json:"accepted_ratio"`
	// PerSeed holds the per-seed ratios.
	PerSeed []float64 `json:"per_seed"`
}

// aperiodicStream is one pre-generated arrival stream.
type arrivalEvent struct {
	at   time.Duration
	task *sched.Task
	ref  sched.TaskRef // the task's index in the generated set
	job  int64
}

// RunAblationAUBvsDS replays identical aperiodic arrival streams through
// AUB-based admission (with idle resetting disabled, matching the DS model's
// lack of execution simulation) and deferrable-server admission, and
// reports both accepted utilization ratios.
func RunAblationAUBvsDS(opts AblationOptions) ([]AblationResult, error) {
	opts = opts.withDefaults()
	aub := AblationResult{Technique: "AUB", PerSeed: make([]float64, opts.Seeds)}
	ds := AblationResult{Technique: "DS", PerSeed: make([]float64, opts.Seeds)}

	err := runTrials(opts.Seeds, opts.Workers, func(seed int) error {
		tasks, events, err := ablationStream(opts, int64(seed))
		if err != nil {
			return err
		}
		aub.PerSeed[seed] = replayAUB(opts, tasks, events)
		dsRatio, err := replayDS(opts, events)
		if err != nil {
			return err
		}
		ds.PerSeed[seed] = dsRatio
		return nil
	})
	if err != nil {
		return nil, err
	}
	aub.AcceptedRatio = meanOf(aub.PerSeed)
	ds.AcceptedRatio = meanOf(ds.PerSeed)
	return []AblationResult{aub, ds}, nil
}

// meanOf averages a slice.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ablationStream generates single-stage aperiodic tasks with Poisson
// arrivals whose offered load is TargetUtil per processor, and the merged
// time-ordered arrival sequence.
func ablationStream(opts AblationOptions, seed int64) ([]*sched.Task, []arrivalEvent, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	perProc := opts.Tasks / opts.Procs
	if perProc == 0 {
		perProc = 1
	}
	var tasks []*sched.Task
	for i := 0; i < opts.Tasks; i++ {
		proc := i % opts.Procs
		deadline := time.Duration(250+rng.Intn(2000)) * time.Millisecond
		// Offered load per task stream: TargetUtil split across streams on
		// the processor; exec = share * deadline (mean interarrival equals
		// the deadline, so C/D is also the long-run offered utilization).
		share := opts.TargetUtil / float64(perProc)
		exec := time.Duration(share * float64(deadline))
		if exec <= 0 {
			exec = time.Millisecond
		}
		tasks = append(tasks, &sched.Task{
			ID:               fmt.Sprintf("A%d", i),
			Kind:             sched.Aperiodic,
			Deadline:         deadline,
			MeanInterarrival: deadline,
			Subtasks:         []sched.Subtask{{Index: 0, Exec: exec, Processor: proc}},
		})
	}
	sched.AssignEDMSPriorities(tasks)

	var events []arrivalEvent
	for i, t := range tasks {
		now := time.Duration(0)
		job := int64(0)
		for {
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			now += time.Duration(-float64(t.MeanInterarrival) * math.Log(u))
			if now > opts.Horizon {
				break
			}
			events = append(events, arrivalEvent{at: now, task: t, ref: sched.TaskRef(i), job: job})
			job++
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].task.ID < events[j].task.ID
	})
	return tasks, events, nil
}

// replayAUB runs the stream through the AUB ledger (contributions expire at
// job deadlines; no idle resetting, mirroring the DS model's admission-only
// view).
func replayAUB(opts AblationOptions, tasks []*sched.Task, events []arrivalEvent) float64 {
	ledger := sched.NewLedger(opts.Procs)
	type expiry struct {
		at  time.Duration
		ref sched.JobKey
	}
	var pending []expiry
	var offered, accepted float64
	for _, ev := range events {
		// Expire everything due before this arrival.
		kept := pending[:0]
		for _, e := range pending {
			if e.at <= ev.at {
				ledger.ExpireJob(e.ref)
			} else {
				kept = append(kept, e)
			}
		}
		pending = kept

		util := ev.task.TotalUtil()
		offered += util
		placement := []sched.PlacedStage{{
			Stage: 0,
			Proc:  ev.task.Subtasks[0].Processor,
			Util:  ev.task.StageUtil(0),
		}}
		if !ledger.Admissible(placement) {
			continue
		}
		ref := sched.JobKey{Task: ev.ref, Job: ev.job}
		if err := ledger.AddJob(ref, sched.Aperiodic, placement, false, ev.at+ev.task.Deadline); err != nil {
			continue
		}
		pending = append(pending, expiry{at: ev.at + ev.task.Deadline, ref: ref})
		accepted += util
	}
	if offered == 0 {
		return 0
	}
	return accepted / offered
}

// replayDS runs the same stream through per-processor deferrable servers.
func replayDS(opts AblationOptions, events []arrivalEvent) (float64, error) {
	period := 100 * time.Millisecond
	budget := time.Duration(opts.ServerUtil * float64(period))
	ds, err := sched.NewDSAdmission(opts.Procs, budget, period)
	if err != nil {
		return 0, err
	}
	var offered, accepted float64
	for _, ev := range events {
		ds.Expire(ev.at)
		util := ev.task.TotalUtil()
		offered += util
		if ds.Arrive(ev.task, ev.job, ev.at) {
			accepted += util
		}
	}
	if offered == 0 {
		return 0, nil
	}
	return accepted / offered, nil
}

// writeAblation formats the comparison.
func writeAblation(w io.Writer, results []AblationResult) {
	fmt.Fprintln(w, "Ablation: AUB vs deferrable-server admission (aperiodic streams)")
	fmt.Fprintf(w, "%-10s %-10s %s\n", "technique", "ratio", "per-seed")
	for _, r := range results {
		fmt.Fprintf(w, "%-10s %-10.3f %v\n", r.Technique, r.AcceptedRatio, roundSlice(r.PerSeed))
	}
	fmt.Fprintln(w)
}

// roundSlice trims floats for printing.
func roundSlice(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
