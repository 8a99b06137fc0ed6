package main

// This file is the benchmark's declaration in Go: the workloads and every
// metric with its unit, direction and bound. BENCHMARK.json at the root of
// the repository says the same thing to the driver; TestDeclarationMatchesJSON
// fails when the two drift apart.

// workloadDecl names one workload and says why it exists.
type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDecl names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before it counts as a regression;
// per-layer metrics have none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// Every live workload is an open loop at the same 300 jobs/s; what differs is
// the strategy combination and the task set, and with them the path a job
// takes. live-churn (see liveSpecs) is not among them: it runs, shortened, in
// every traced run and supplies the control-plane metrics, but its latencies
// grow through a run and never repeated within any bound.
var workloads = []workloadDecl{
	{"live-steady", "live J_J_J, open loop 300 jobs/s, all admitted: the full per-job path (admission round trip, idle reset, load balancing, execution) with short queues, so hop, codec and group-commit cost show"},
	{"live-overload", "live J_N_N, open loop 300 jobs/s against an AUB ledger that admits a third: most jobs end at the refusal, so the bare decision round trip dominates and executor work barely shows"},
	{"live-cached", "live T_N_N, open loop 300 jobs/s, periodic tasks: Submit resolves from the per-task cache with no AC round trip; bypasses admission-path work, exposes release, trigger and executor work"},
	{"sim-sweep", "simulation, all 15 strategy combinations serially over 50 processors and 10000 tasks: des, core.SimSystem and sched do all the work, the transport none; outputs are deterministic per seed"},
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every one is defined on every workload; README.md gives the reading
// each takes on the simulation binding. Every bound is the widest the driver
// allows: between one hour and the next the shared box itself moves a timing
// by 15 %.
var endToEnd = []metricDecl{
	{"setup_s", "s", lower, 0.25},
	{"throughput_jobs_s", "jobs/s", higher, 0.25},
	{"decision_p50_us", "us", lower, 0.25},
	{"completion_p50_us", "us", lower, 0.25},
	{"cpu_us_per_job", "us", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer are the single-layer metrics of the traced run, grouped by the
// package they measure.
var perLayer = []metricDecl{
	// The binding, in situ: spans around the benchmark's own calls.
	{"cluster.submit_p50_us", "us", lower, 0},
	{"cluster.submit_p99_us", "us", lower, 0},
	{"cluster.decision_wait_p50_us", "us", lower, 0},
	{"cluster.execute_p50_us", "us", lower, 0},
	{"cluster.decision_p90_us", "us", lower, 0},
	{"cluster.completion_p90_us", "us", lower, 0},
	{"cluster.decision_p99_us", "us", lower, 0},
	{"cluster.completion_p99_us", "us", lower, 0},
	{"cluster.start_ms", "ms", lower, 0},
	{"cluster.watch_dropped", "count", lower, 0},
	{"cluster.accepted_share", "share", higher, 0},
	{"deadline_miss_share", "share", lower, 0},
	{"failed_share", "share", lower, 0},
	// The control plane, in situ on live-churn.
	{"control_op_p50_us", "us", lower, 0},
	{"deploy.reconfigure_p50_us", "us", lower, 0},
	{"deploy.reconfigure_quiesce_p50_us", "us", lower, 0},
	{"deploy.reconfigure_deferred_mean", "count", lower, 0},
	{"deploy.add_tasks_p50_us", "us", lower, 0},
	{"deploy.remove_tasks_p50_us", "us", lower, 0},
	{"configengine.generate_plan_ms", "ms", lower, 0},
	// Transport probes.
	{"eventchan.hop_p50_us", "us", lower, 0},
	{"eventchan.hop_p99_us", "us", lower, 0},
	{"eventchan.hop_allocs", "count", lower, 0},
	{"eventchan.stream_events_s", "1/s", higher, 0},
	{"eventchan.stream_allocs_per_event", "count", lower, 0},
	{"eventchan.local_push_ns", "ns", lower, 0},
	{"orb.invoke_rtt_p50_us", "us", lower, 0},
	{"orb.invoke_rtt_p99_us", "us", lower, 0},
	{"orb.invoke_allocs", "count", lower, 0},
	{"orb.oneway_msgs_s", "1/s", higher, 0},
	{"orb.oneway_allocs_per_msg", "count", lower, 0},
	// Admission probes.
	{"core.arrive_jnn_ns", "ns", lower, 0},
	{"core.arrive_jjj_ns", "ns", lower, 0},
	{"core.arrive_overload_ns", "ns", lower, 0},
	{"core.idle_reset_ns", "ns", lower, 0},
	{"core.arrive_allocs", "count", lower, 0},
	{"sched.admit_shards1_ops_s", "1/s", higher, 0},
	{"sched.admit_shards8_ops_s", "1/s", higher, 0},
	{"sched.admit_ns", "ns", lower, 0},
	{"sched.admit_allocs", "count", lower, 0},
	// The simulation, in situ on sim-sweep.
	{"core.sim_build_ms", "ms", lower, 0},
	{"core.sim_ttt_jobs_s", "jobs/s", higher, 0},
	{"core.sim_jjj_jobs_s", "jobs/s", higher, 0},
	{"core.sim_jtt_jobs_s", "jobs/s", higher, 0},
	{"core.sim_events_s", "1/s", higher, 0},
	{"core.sim_allocs_per_job", "count", lower, 0},
	{"core.sim_jobs", "count", higher, 0},
	{"core.sim_released", "count", higher, 0},
	{"core.sim_events", "count", lower, 0},
	{"des.events_s", "1/s", higher, 0},
	{"workload.generate_ms", "ms", lower, 0},
	// The process, on every run.
	{"process.allocs_per_job", "count", lower, 0},
	{"process.bytes_per_job", "B", lower, 0},
	{"process.gc_cpu_share", "share", lower, 0},
	// The instrument itself.
	{"loadgen.lag_p99_us", "us", lower, 0},
	{"loadgen.lag_max_us", "us", lower, 0},
	{"trace.spans", "count", lower, 0},
	{"trace.overhead_share", "share", lower, 0},
}

// unitOf looks a metric's unit up by name.
func unitOf(name string) string {
	for _, list := range [][]metricDecl{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
