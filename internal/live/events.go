// Package live binds the configurable middleware services to the real
// transport stack (internal/orb + internal/eventchan + internal/ccm): task
// effectors, the centralized admission controller and load balancer, idle
// resetters, and subtask executors run as CCM-style components on nodes
// connected by the federated event channel, exactly as in the paper's
// Figure 3 component diagram.
//
// The live binding exists for the parts of the evaluation that need real
// clocks and real message passing — the Section 7.3 overhead measurements —
// and for the runnable daemons and examples. The schedulability experiments
// (Figures 5 and 6) use the deterministic simulation binding in
// internal/core instead.
//
// Event payloads (the types below) travel in the fixed binary layout of
// codec.go. They name tasks by the sched.TaskRef the deployment plan hands
// out (AttrTaskRefs); only a Heartbeat carries a name, its node's. The cold
// ORB request/reply facets answer in decimal text (reconfig) or an Accept
// payload (Location).
//
// The admission controller's one ledger lives on the manager node and is
// never copied: the manager's only events are its Accepts, and losing the
// manager loses every in-flight admission decision.
package live

import (
	"time"

	"repro/internal/sched"
)

// Event type names routed through the federated event channel. TaskArrive,
// Accept, Trigger and IdleReset cross the network (Figure 3's event
// source/sink ports), and so does Heartbeat; Release, Complete, Skip and
// Done stay node-local.
const (
	// EvTaskArrive flows TE → AC when a job arrives.
	EvTaskArrive = "TaskArrive"
	// EvAccept flows AC → TE with the admission decision and placement.
	EvAccept = "Accept"
	// EvTrigger flows between consecutive subtask components, possibly
	// across nodes.
	EvTrigger = "Trigger"
	// EvIdleReset flows IR → AC when a processor goes idle.
	EvIdleReset = "IdleReset"
	// EvRelease is the local TE → first-subtask release path (the paper's
	// Release method call).
	EvRelease = "Release"
	// EvComplete is the local subtask → IR completion report (the paper's
	// Complete method call).
	EvComplete = "Complete"
	// EvSkip is a local notification that the task effector skipped a job
	// no Accept named (a cached rejection, a job held behind a rejected or
	// lost request); its payload is an Accept with Ok false.
	EvSkip = "Skip"
	// EvDone is a local notification that a job's last subtask finished;
	// drivers and metrics collectors subscribe to it.
	EvDone = "Done"
	// EvHeartbeat flows node → manager: each application node's beacon
	// announces liveness to the failure detector.
	EvHeartbeat = "Heartbeat"
)

// TaskArrive announces a job arrival to the admission controller.
type TaskArrive struct {
	// Task and Job identify the arrival.
	Task sched.TaskRef
	Job  int64
	// Proc is the arrival processor.
	Proc int
	// ArrivalNanos is the arrival wall-clock time (UnixNano), the base for
	// the job's absolute deadline.
	ArrivalNanos int64
}

// Accept carries the admission decision back to the task effectors.
type Accept struct {
	// Task and Job identify the arrival the decision answers.
	Task sched.TaskRef
	Job  int64
	// Ok reports whether the job may be released.
	Ok bool
	// Placement assigns each stage to a processor (nil when rejected).
	Placement []sched.PlacedStage
	// PerTaskDecision marks a decision that settles a periodic task under
	// per-task admission control: the TE caches it.
	PerTaskDecision bool
	// ArrivalNanos echoes the arrival time.
	ArrivalNanos int64
	// Epoch is the reconfiguration epoch the decision was made under. Task
	// effectors only cache per-task decisions stamped with their current
	// epoch, so a decision from before a strategy swap releases its own job
	// but never survives as cached policy.
	Epoch int64
}

// Trigger releases the next subtask in a chain.
type Trigger struct {
	// Task and Job identify the in-flight job.
	Task sched.TaskRef
	Job  int64
	// Stage is the subtask to execute now.
	Stage int
	// Placement is the job's full assignment, so downstream stages route
	// themselves.
	Placement []sched.PlacedStage
	// ArrivalNanos is the job's arrival time, carried for response-time and
	// deadline accounting.
	ArrivalNanos int64
}

// IdleReset reports completed subjobs from an idle processor.
type IdleReset struct {
	// Proc is the reporting processor.
	Proc int
	// Entries are the completed, unexpired contributions to remove.
	Entries []sched.Entry[sched.JobKey]
}

// Complete is the node-local subtask → IR completion report.
type Complete struct {
	// Ref and Stage identify the completed subjob.
	Ref   sched.JobKey
	Stage int
	// Kind is the owning task's kind (IR-per-task filters on it).
	Kind sched.TaskKind
	// DeadlineNanos is the job's absolute deadline (UnixNano).
	DeadlineNanos int64
}

// Heartbeat is one liveness beacon from an application node.
type Heartbeat struct {
	// Node is the beacon's node name; Proc its application processor.
	Node string
	Proc int
	// Seq increases by one per beacon, so the detector can distinguish a
	// fresh beacon from a delayed duplicate.
	Seq int64
	// SentNanos is the send wall-clock time (UnixNano).
	SentNanos int64
}

// Done announces the completion of a job's last subtask.
type Done struct {
	// Task and Job identify the finished job.
	Task sched.TaskRef
	Job  int64
	// ArrivalNanos and DoneNanos bound the response time.
	ArrivalNanos int64
	DoneNanos    int64
}

// nowNanos returns the current wall clock as UnixNano. Live deadlines use
// UnixNano durations so every node on a host shares the same base; the DES
// binding uses virtual offsets instead.
func nowNanos() int64 { return time.Now().UnixNano() }
