package main

import (
	"sort"
	"time"
)

// metrics maps a declared metric name to its value. A run reports only the
// metrics it measured; unitOf supplies the unit.
type metrics map[string]float64

// merge copies src over m: later, closer measurements win.
func (m metrics) merge(src metrics) {
	for k, v := range src {
		m[k] = v
	}
}

func median(values []float64) float64 {
	return summarize(append([]float64(nil), values...)).P50
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// minSliceJobs is how many samples a slice needs for its median to count.
const minSliceJobs = 15

// endToEnd are a live run's user-visible metrics. The two latencies are read
// per slice of the window (see sliceLen), as that slice's median, and reported
// over the quietest slices (see quietMean); slices cut short by the end of the
// window, or with too few jobs for a median, are left out. Throughput and CPU
// per job are taken over the whole window: on an open loop neither moves with
// the box's slow episodes unless the system falls behind.
func (o *liveOutcome) endToEnd(setups []float64) metrics {
	var d50, c50 []float64
	var window, cpu time.Duration
	decided := 0
	for _, sl := range o.stats.Slices {
		window, cpu, decided = window+sl.Dur, cpu+sl.CPU, decided+sl.Decided
		if sl.Dur < sliceLen/2 {
			continue
		}
		if dec := summarize(sl.Decision); dec.N >= minSliceJobs {
			d50 = append(d50, dec.P50)
		}
		if comp := summarize(sl.Completion); comp.N >= minSliceJobs {
			c50 = append(c50, comp.P50)
		}
	}
	// A window too short to have one full slice falls back to itself whole.
	if len(d50) == 0 || len(c50) == 0 {
		d50, c50 = []float64{summarize(o.stats.Decision).P50}, []float64{summarize(o.stats.Completion).P50}
	}
	// Only jobs decided inside the window count, so a backlog that is worked
	// off after the last arrival shows as throughput lost.
	jobs := float64(max(decided, 1))
	return metrics{
		"setup_s":           median(setups),
		"throughput_jobs_s": jobs / window.Seconds(),
		"decision_p50_us":   quietMean(d50),
		"completion_p50_us": quietMean(c50),
		"cpu_us_per_job":    us(cpu) / jobs,
		"peak_rss_mb":       peakRSSMB(),
	}
}

// traceOverhead compares the median decision latency of the window's traced
// slices with that of its untraced ones.
func (s *jobStats) traceOverhead() float64 {
	var plain, traced []float64
	for _, sl := range s.Slices {
		v := summarize(sl.Decision).P50
		if sl.Dur < sliceLen/2 || v == 0 {
			continue
		}
		if sl.Traced {
			traced = append(traced, v)
		} else {
			plain = append(plain, v)
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return 0
	}
	return (median(traced) - median(plain)) / median(plain)
}

// perLayer are a traced live run's in-situ metrics: the binding's share of
// each job, the control plane's calls, the process and the generator.
func (o *liveOutcome) perLayer() metrics {
	st := &o.stats
	dec, comp := summarize(st.Decision), summarize(st.Completion)
	sub, lag := summarize(st.Submit), summarize(st.Lag)
	m := metrics{
		"cluster.submit_p50_us":        sub.P50,
		"cluster.submit_p99_us":        sub.P99,
		"cluster.decision_wait_p50_us": summarize(st.Wait).P50,
		"cluster.execute_p50_us":       summarize(st.Execute).P50,
		"cluster.decision_p90_us":      dec.P90,
		"cluster.completion_p90_us":    comp.P90,
		"cluster.decision_p99_us":      dec.P99,
		"cluster.completion_p99_us":    comp.P99,
		"cluster.start_ms":             ms(o.startDur),
		"cluster.watch_dropped":        float64(o.dropped),
		"cluster.accepted_share":       float64(st.Accepted) / float64(max(st.Decided, 1)),
		"deadline_miss_share":          float64(st.Missed) / float64(max(st.Accepted, 1)),
		"failed_share":                 float64(st.Failed) / float64(max(st.Attempted, 1)),
		"process.allocs_per_job":       o.cost.AllocsPerJob,
		"process.bytes_per_job":        o.cost.BytesPerJob,
		"process.gc_cpu_share":         o.cost.GCShare,
		"loadgen.lag_p99_us":           lag.P99,
		"loadgen.lag_max_us":           lag.Max,
		"trace.overhead_share":         o.traceOverhead,
	}
	if len(o.ops) == 0 {
		return m
	}
	byName := map[string][]float64{}
	var all, quiesce []float64
	var deferred float64
	for _, op := range o.ops {
		d := float64(op.end-op.start) * usPerNs
		all = append(all, d)
		byName[op.name] = append(byName[op.name], d)
		if op.name == "deploy.reconfigure" {
			quiesce = append(quiesce, us(op.quiesce))
			deferred += float64(op.deferred)
		}
	}
	m["control_op_p50_us"] = median(all)
	m["deploy.reconfigure_p50_us"] = median(byName["deploy.reconfigure"])
	m["deploy.reconfigure_quiesce_p50_us"] = median(quiesce)
	m["deploy.reconfigure_deferred_mean"] = deferred / float64(max(len(quiesce), 1))
	m["deploy.add_tasks_p50_us"] = median(byName["deploy.add_tasks"])
	m["deploy.remove_tasks_p50_us"] = median(byName["deploy.remove_tasks"])
	return m
}

// totals sums a sweep's combinations.
func (o *simOutcome) totals() (jobs, released, events int64, run time.Duration) {
	for _, r := range o.combos {
		jobs += r.Arrived
		released += r.Released
		events += r.Events
		run += r.Run
	}
	return jobs, released, events, run
}

// endToEnd are a sweep's user-visible metrics. A request to the simulator is
// one combination: it is decided when NewSimSystem has validated and accepted
// it, and completed when Run returns; throughput counts the simulated arrivals
// of one pass against its combinations' run times. CPU per job is over all the
// passes.
func (o *simOutcome) endToEnd(setups []float64) metrics {
	jobs, _, _, run := o.totals()
	var build, whole []float64
	for _, r := range o.combos {
		build = append(build, us(r.Build))
		whole = append(whole, us(r.Build+r.Run))
	}
	return metrics{
		"setup_s":           median(setups),
		"throughput_jobs_s": float64(jobs) / run.Seconds(),
		"decision_p50_us":   median(build),
		"completion_p50_us": median(whole),
		"cpu_us_per_job":    o.cost.CPUPerJobUS,
		"peak_rss_mb":       peakRSSMB(),
	}
}

// perLayer are a traced sweep's in-situ metrics.
func (o *simOutcome) perLayer() metrics {
	jobs, released, events, run := o.totals()
	var build []float64
	m := metrics{}
	for _, r := range o.combos {
		build = append(build, ms(r.Build))
		switch r.Combo {
		case "T_T_T":
			m["core.sim_ttt_jobs_s"] = float64(r.Arrived) / r.Run.Seconds()
		case "J_J_J":
			m["core.sim_jjj_jobs_s"] = float64(r.Arrived) / r.Run.Seconds()
		case "J_T_T":
			m["core.sim_jtt_jobs_s"] = float64(r.Arrived) / r.Run.Seconds()
		}
	}
	m.merge(metrics{
		"core.sim_build_ms":       median(build),
		"core.sim_events_s":       float64(events) / run.Seconds(),
		"core.sim_allocs_per_job": o.cost.AllocsPerJob,
		"core.sim_jobs":           float64(jobs),
		"core.sim_released":       float64(released),
		"core.sim_events":         float64(events),
		"process.allocs_per_job":  o.cost.AllocsPerJob,
		"process.bytes_per_job":   o.cost.BytesPerJob,
		"process.gc_cpu_share":    o.cost.GCShare,
		"trace.overhead_share":    o.traceOverhead,
	})
	return m
}

// sortedKeys lists a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
