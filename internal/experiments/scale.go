package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// ScalePoint is one (processors, tasks) configuration of the scalability
// sweep.
type ScalePoint struct {
	// Procs is the number of application processors.
	Procs int `json:"procs"`
	// Tasks is the number of end-to-end tasks in the generated workload.
	Tasks int `json:"tasks"`
}

func (p ScalePoint) String() string { return fmt.Sprintf("%dx%d", p.Procs, p.Tasks) }

// ScaleOptions parameterizes the scalability sweep: the same simulated
// middleware as the figure experiments, run over workloads far beyond the
// paper's five-processor testbed to measure the substrate's throughput as
// the platform grows.
type ScaleOptions struct {
	// Points lists the (procs, tasks) configurations; nil runs the default
	// ladder 5x100, 50x10000, 200x50000.
	Points []ScalePoint
	// Horizon is the virtual workload duration per point (default 2s; the
	// scale workloads use 100ms–2s deadlines, so a couple of seconds already
	// releases several jobs per task).
	Horizon time.Duration
	// Combo is the strategy combination under test (default J_J_J, the
	// fully dynamic configuration that stresses every service).
	Combo core.Config
}

func (o ScaleOptions) withDefaults() ScaleOptions {
	if len(o.Points) == 0 {
		o.Points = []ScalePoint{{5, 100}, {50, 10_000}, {200, 50_000}}
	}
	if o.Horizon == 0 {
		o.Horizon = 2 * time.Second
	}
	if (o.Combo == core.Config{}) {
		o.Combo = core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}
	}
	return o
}

// ScaleResult is one point's outcome: the virtual workload it processed and
// the wall-clock throughput the substrate sustained doing it.
type ScaleResult struct {
	// Point is the (procs, tasks) configuration.
	Point ScalePoint `json:"point"`
	// Jobs counts job arrivals; Released and Completed count admitted and
	// finished jobs.
	Jobs      int64 `json:"jobs"`
	Released  int64 `json:"released"`
	Completed int64 `json:"completed"`
	// Ratio is the accepted utilization ratio (the paper's headline metric).
	Ratio float64 `json:"accepted_ratio"`
	// Events is the number of discrete events the engine fired.
	Events int64 `json:"events"`
	// Wall is the wall-clock time the run took.
	Wall time.Duration `json:"wall_ns"`
	// JobsPerSec and EventsPerSec are the wall-clock throughputs.
	JobsPerSec   float64 `json:"jobs_per_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocBytes and GCCycles are the bytes allocated and the collector
	// cycles run across NewSimSystem and Run, from a collected heap.
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint32 `json:"gc_cycles"`
}

// RunScale executes the scalability sweep serially (each point is itself a
// large single-threaded simulation; the figure sweeps are where trial-level
// parallelism pays).
func RunScale(opts ScaleOptions) ([]ScaleResult, error) {
	opts = opts.withDefaults()
	results := make([]ScaleResult, 0, len(opts.Points))
	for _, pt := range opts.Points {
		params := workload.ScaleParams(pt.Procs, pt.Tasks, 0)
		tasks, err := workload.Generate(params)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale %s: %w", pt, err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sim, err := core.NewSimSystem(core.SimConfig{
			Strategies: opts.Combo,
			NumProcs:   pt.Procs,
			Horizon:    opts.Horizon,
			Seed:       params.Seed ^ 0x5DEECE66D,
		}, tasks)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale %s: %w", pt, err)
		}
		start := time.Now()
		m := sim.Run()
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if wall <= 0 {
			wall = time.Nanosecond
		}
		results = append(results, ScaleResult{
			Point:        pt,
			Jobs:         m.Total.Arrived,
			Released:     m.Total.Released,
			Completed:    m.Total.Completed,
			Ratio:        m.AcceptedUtilizationRatio(),
			Events:       sim.Engine().Fired(),
			Wall:         wall,
			JobsPerSec:   float64(m.Total.Arrived) / wall.Seconds(),
			EventsPerSec: float64(sim.Engine().Fired()) / wall.Seconds(),
			AllocBytes:   after.TotalAlloc - before.TotalAlloc,
			GCCycles:     after.NumGC - before.NumGC,
		})
	}
	return results, nil
}

// writeScale formats the sweep as a throughput table.
func writeScale(w io.Writer, title string, results []ScaleResult) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %7s %12s %14s %14s %12s %4s\n",
		"procsxtasks", "jobs", "released", "events", "ratio", "wall", "jobs/sec", "events/sec", "alloc bytes", "gcs")
	for _, r := range results {
		fmt.Fprintf(w, "%-12s %10d %10d %10d %7.3f %12s %14.0f %14.0f %12d %4d\n",
			r.Point, r.Jobs, r.Released, r.Events, r.Ratio,
			r.Wall.Round(time.Millisecond), r.JobsPerSec, r.EventsPerSec, r.AllocBytes, r.GCCycles)
	}
	fmt.Fprintln(w)
}

// ParseScalePoints parses a comma-separated list of PROCSxTASKS pairs, e.g.
// "5x100,50x10000,200x50000".
func ParseScalePoints(s string) ([]ScalePoint, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []ScalePoint
	for _, part := range strings.Split(s, ",") {
		var p ScalePoint
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%dx%d", &p.Procs, &p.Tasks); err != nil {
			return nil, fmt.Errorf("experiments: bad scale point %q (want PROCSxTASKS): %w", part, err)
		}
		if p.Procs < 1 || p.Tasks < 1 {
			return nil, fmt.Errorf("experiments: bad scale point %q: counts must be positive", part)
		}
		out = append(out, p)
	}
	return out, nil
}
