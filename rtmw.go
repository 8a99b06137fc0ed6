// Package rtmw is a reconfigurable real-time middleware for distributed
// cyber-physical systems with aperiodic and periodic events — a Go
// reproduction of Zhang, Gill, Lu, "Reconfigurable Real-Time Middleware for
// Distributed Cyber-Physical Systems with Aperiodic Events" (WUCSE-2008-5 /
// ICDCS 2008).
//
// The middleware provides three configurable services for end-to-end task
// management under the aperiodic utilization bound (AUB) analysis:
//
//   - Admission control (AC): per-task or per-job AUB admission tests;
//   - Idle resetting (IR): none, per-task (aperiodic subjobs), or per-job
//     (aperiodic + periodic subjobs) removal of completed subjobs'
//     synthetic utilization when a processor idles;
//   - Load balancing (LB): none, per-task, or per-job assignment of
//     subtasks to the least-utilized replica.
//
// A front-end configuration engine maps four application-characteristic
// questions (job skipping, replication, state persistence, overhead
// tolerance) to a valid strategy combination, rejects the contradictory
// AC-per-task/IR-per-job configurations, and generates XML deployment plans
// executed over live nodes.
//
// Two bindings run the same policies:
//
//   - a deterministic discrete-event simulation for schedulability
//     experiments (Figures 5 and 6 of the paper), and
//   - a live binding over a TCP object request broker and federated event
//     channels for real deployments and overhead measurement (Figure 8).
//
// This package is a facade over the internal implementation packages; see
// README.md for a quickstart and DESIGN.md for the layer architecture and
// the admission ledger's index design.
package rtmw

import (
	"repro/internal/cluster"
	"repro/internal/configengine"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/workload"
)

// Task model re-exports.
type (
	// Task is an end-to-end task: a chain of subtasks with a deadline.
	Task = sched.Task
	// Subtask is one stage of an end-to-end task.
	Subtask = sched.Subtask
	// TaskKind distinguishes periodic from aperiodic tasks.
	TaskKind = sched.TaskKind
)

// Task kinds.
const (
	Periodic  = sched.Periodic
	Aperiodic = sched.Aperiodic
)

// Strategy configuration re-exports.
type (
	// Strategy is one service axis setting (N / T / J).
	Strategy = core.Strategy
	// Config is an AC/IR/LB strategy combination such as "J_T_N".
	Config = core.Config
)

// Strategy values.
const (
	StrategyNone    = core.StrategyNone
	StrategyPerTask = core.StrategyPerTask
	StrategyPerJob  = core.StrategyPerJob
)

// ParseConfig parses an "AC_IR_LB" tuple such as "J_T_N" and validates it.
func ParseConfig(s string) (Config, error) { return core.ParseConfig(s) }

// Binding is the open-world surface both middleware bindings implement: the
// deterministic simulation (*SimSystem) and the live cluster (*Cluster).
//
// Ingestion is admission-aware: Submit injects one job arrival and returns a
// typed Admission (job number plus the decision state — per-task cached
// decisions resolve synchronously, everything else is Pending until the
// decision round trip completes), and SubmitBatch injects bulk arrivals in
// order after validating every ID up front.
//
// The task set is dynamic: AddTasks registers tasks on the running binding
// (EDMS priorities re-assigned over the union, AUB-ledger admission from the
// next arrival; the live binding installs the new subtask components and
// federation routes through a configuration-engine delta under the quiesce
// protocol) and RemoveTasks withdraws tasks, releasing their remaining
// ledger contributions without losing a single already-admitted job.
//
// Watch opens an ordered stream of typed lifecycle events (admissions,
// rejections, completions, deadline misses, task-set changes,
// reconfigurations) — the push-based replacement for Snapshot polling.
// Snapshot remains the aggregate point-in-time view.
//
// Reconfigure runs the epoch-versioned two-phase strategy swap — quiesce
// admission, drain in-flight decisions, swap the AC/IR/LB strategy objects,
// rebase the admission ledger, resume — without dropping a single admitted
// job; invalid target combinations (the configengine feasibility rules,
// e.g. AC-per-task with IR-per-job) are rejected without disturbing the
// running configuration. On the simulation binding a mid-run Reconfigure
// completes when virtual time passes the quiesce window; use
// (*SimSystem).ScheduleReconfig to build strategy schedules at exact
// virtual times, and (*SimSystem).At to drive Submit/AddTasks/RemoveTasks
// at exact virtual times. Stop retires the binding and closes every watch
// stream.
//
// Failures are typed: ErrStopped, ErrUnknownTask and ErrTaskExists are
// discriminated with errors.Is.
type Binding interface {
	Submit(taskID string) (Admission, error)
	SubmitBatch(taskIDs []string) ([]Admission, error)
	AddTasks(tasks []*Task) error
	RemoveTasks(ids []string) error
	Watch(opts WatchOptions) (*Watch, error)
	Snapshot() BindingSnapshot
	Reconfigure(cfg Config) (*ReconfigReport, error)
	Stop() error
}

// Binding surface re-exports.
type (
	// BindingSnapshot is a point-in-time view of a running binding.
	BindingSnapshot = core.BindingSnapshot
	// ReconfigReport describes one completed reconfiguration transaction.
	ReconfigReport = core.ReconfigReport
	// Admission is the typed outcome of one submitted arrival.
	Admission = core.Admission
	// AdmissionOutcome is the resolution state of an Admission.
	AdmissionOutcome = core.AdmissionOutcome
	// Watch is an ordered subscription of lifecycle events.
	Watch = core.WatchStream
	// WatchOptions filters and sizes a watch subscription.
	WatchOptions = core.WatchOptions
	// WatchEvent is one typed lifecycle event.
	WatchEvent = core.WatchEvent
	// WatchKind labels a lifecycle event.
	WatchKind = core.WatchKind
)

// Admission outcomes.
const (
	AdmissionPending  = core.AdmissionPending
	AdmissionAccepted = core.AdmissionAccepted
	AdmissionRejected = core.AdmissionRejected
)

// Watch event kinds.
const (
	WatchAdmitted     = core.WatchAdmitted
	WatchRejected     = core.WatchRejected
	WatchCompleted    = core.WatchCompleted
	WatchDeadlineMiss = core.WatchDeadlineMiss
	WatchTaskAdded    = core.WatchTaskAdded
	WatchTaskRemoved  = core.WatchTaskRemoved
	WatchReconfigured = core.WatchReconfigured
)

// Typed Binding failures, discriminated with errors.Is.
var (
	// ErrStopped marks an operation on a stopped binding.
	ErrStopped = core.ErrStopped
	// ErrUnknownTask marks an operation naming a task the binding does not
	// currently serve.
	ErrUnknownTask = core.ErrUnknownTask
	// ErrTaskExists marks an AddTasks call re-registering a served task ID.
	ErrTaskExists = core.ErrTaskExists
)

// Compile-time proof that both bindings expose the unified surface.
var (
	_ Binding = (*SimSystem)(nil)
	_ Binding = (*Cluster)(nil)
)

// Simulation re-exports: the deterministic virtual-time binding.
type (
	// SimConfig parameterizes a simulation run.
	SimConfig = core.SimConfig
	// SimSystem is a configured simulation.
	SimSystem = core.SimSystem
)

// NewSimBinding builds the simulation binding of the middleware over the
// tasks. Run executes the workload; ScheduleReconfig swaps strategies at a
// virtual time mid-run; At drives open-world operations (Submit, AddTasks,
// RemoveTasks) at exact virtual times.
//
// The binding reads the tasks, and those given to AddTasks, in place and
// never writes them, Priority included; the caller must leave them unchanged
// until the binding stops. One task set may back several bindings at once.
func NewSimBinding(cfg SimConfig, tasks []*Task) (*SimSystem, error) {
	return core.NewSimSystem(cfg, tasks)
}

// Workload is the JSON workload specification file model.
type Workload = spec.Workload

// ParseWorkload decodes and validates a JSON workload specification.
func ParseWorkload(data []byte) (*Workload, error) { return spec.Parse(data) }

// Random workload generation re-exports (the paper's Section 7 setups).
type WorkloadParams = workload.Params

// Figure6Params builds the paper's imbalanced Figure 6 workload parameters.
var Figure6Params = workload.Figure6Params

// GenerateWorkload produces a random task set per the parameters. The
// tasks share backing arrays, and their Subtasks and Replicas slices are
// capacity-limited, so an append copies rather than overwriting a
// neighbour (see workload.Generate).
func GenerateWorkload(p WorkloadParams) ([]*Task, error) { return workload.Generate(p) }

// Configuration engine re-exports.
type (
	// Answers are the developer's responses to the four questions of the
	// front-end configuration engine.
	Answers = configengine.Answers
	// Tolerance is the overhead-tolerance answer (N / PT / PJ).
	Tolerance = configengine.Tolerance
	// MappingResult is a strategy selection with its reasoning.
	MappingResult = configengine.Result
	// DeploymentPlan is an XML deployment plan.
	DeploymentPlan = deploy.Plan
	// DeploymentNode declares one node in a plan.
	DeploymentNode = deploy.Node
)

// Overhead tolerance values.
const (
	ToleranceNone    = configengine.ToleranceNone
	TolerancePerTask = configengine.TolerancePerTask
	TolerancePerJob  = configengine.TolerancePerJob
)

// MapAnswers applies Table 1 to select a valid strategy combination.
func MapAnswers(a Answers) MappingResult { return configengine.MapAnswers(a) }

// GeneratePlan emits the XML deployment plan for a workload under a
// strategy combination.
func GeneratePlan(name string, w *Workload, cfg Config, manager DeploymentNode, apps []DeploymentNode) (*DeploymentPlan, error) {
	return configengine.GeneratePlan(name, w, cfg, manager, apps)
}

// Live cluster re-exports: the real-transport binding.
type (
	// ClusterOptions configures an in-process live deployment.
	ClusterOptions = cluster.Options
	// Cluster is a running live deployment (manager + application nodes on
	// TCP loopback, deployed through the configuration engine and plan
	// launcher).
	Cluster = cluster.Cluster
)

// StartLiveBinding deploys and activates the live cluster binding: manager
// plus application nodes on TCP loopback, deployed through the
// configuration engine, XML plan and plan launcher. The returned Cluster
// implements the unified Binding surface, including live Reconfigure and
// the open-world AddTasks/RemoveTasks deltas.
func StartLiveBinding(opts ClusterOptions) (*Cluster, error) { return cluster.Start(opts) }

// ReconfigDeltaPlan is a reconfiguration transaction for a running
// deployment: the configuration engine emits minimal deltas against a running
// deployment's plan, and the plan launcher executes them (rtmw-config's
// reconfigure subcommand is the CLI form).
type ReconfigDeltaPlan = deploy.Delta

// ReconfigDelta computes the minimal reconfiguration transaction that moves
// the running deployment described by plan to the target combination.
func ReconfigDelta(plan *DeploymentPlan, to Config) (*ReconfigDeltaPlan, error) {
	return configengine.ReconfigDelta(plan, to)
}

// RenderTable1 renders the paper's Table 1 (the configuration engine's
// question-to-strategy mapping). The experiment harness that regenerates the
// figures is tooling, not library surface: it lives in internal/experiments
// behind cmd/rtmw-bench.
var RenderTable1 = configengine.RenderTable1
