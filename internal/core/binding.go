package core

import (
	"time"

	"repro/internal/sched"
)

// This file holds the types shared by the unified Binding API: both the
// deterministic simulation (SimSystem) and the live cluster binding
// (internal/cluster.Cluster) expose Submit/Snapshot/Reconfigure/Stop over
// these structures, so tools and experiments can drive either binding
// through one surface (the rtmw.Binding interface re-exports them).

// BindingSnapshot is a point-in-time view of a running binding.
type BindingSnapshot struct {
	// Config is the currently active AC/IR/LB strategy combination.
	Config Config
	// Epoch counts completed reconfigurations: 0 for the initial
	// configuration, incremented atomically at each strategy swap.
	Epoch int64
	// Arrived, Released, Skipped and Completed aggregate job counts over the
	// binding's lifetime (all epochs).
	Arrived   int64
	Released  int64
	Skipped   int64
	Completed int64
	// InFlight is the number of released jobs not yet completed.
	InFlight int64
	// WatchDropped is the total watch events dropped across all
	// subscriptions because a consumer's buffer was full — visible sensor
	// loss without needing a live subscription of one's own.
	WatchDropped int64
}

// AdmissionOutcome is the resolution state of one submitted arrival.
type AdmissionOutcome int32

// Admission outcomes. The middleware decides admission through an
// asynchronous "Task Arrive" → "Accept" event round trip, so most
// submissions are Pending at return; per-task cached decisions resolve
// synchronously. The terminal outcome for a pending submission arrives on
// the binding's watch stream (WatchAdmitted / WatchRejected).
const (
	// AdmissionPending means the decision round trip is in flight (or the
	// arrival was deferred by a reconfiguration quiesce).
	AdmissionPending AdmissionOutcome = iota + 1
	// AdmissionAccepted means the job was released, with Placement assigned.
	AdmissionAccepted
	// AdmissionRejected means the job was skipped.
	AdmissionRejected
)

// String returns the lowercase outcome name.
func (o AdmissionOutcome) String() string {
	switch o {
	case AdmissionPending:
		return "pending"
	case AdmissionAccepted:
		return "accepted"
	case AdmissionRejected:
		return "rejected"
	default:
		return "unknown"
	}
}

// Admission is the typed outcome of one Submit: which job number the arrival
// was assigned and how far its admission has resolved. It replaces the bare
// job index the closed-world API returned, making the admission verdict a
// first-class result instead of something recovered from polled snapshots.
type Admission struct {
	// Task and Job identify the arrival.
	Task string
	Job  int64
	// Outcome is the resolution state at return time.
	Outcome AdmissionOutcome
	// Reason explains a rejection or why the outcome is still pending.
	Reason string
	// Placement is the stage assignment of a synchronously accepted job
	// (per-task cached decisions). Callers must treat it as read-only.
	Placement []sched.PlacedStage
}

// ReconfigReport describes one completed reconfiguration transaction: the
// epoch-versioned two-phase quiesce → swap → resume protocol both bindings
// implement.
type ReconfigReport struct {
	// From and To are the strategy combinations before and after the swap.
	From Config `json:"from"`
	To   Config `json:"to"`
	// Epoch is the epoch entered by the swap (the Accept events decided
	// after it carry this stamp).
	Epoch int64 `json:"epoch"`
	// At is the virtual time of the swap (simulation binding only).
	At time.Duration `json:"at_ns"`
	// Quiesce is how long admission was quiesced: the window during which
	// new arrivals were deferred while in-flight decisions drained. Virtual
	// time in the simulation binding, wall-clock in the live binding.
	Quiesce time.Duration `json:"quiesce_ns"`
	// Deferred is the number of arrivals queued during the quiesce and
	// replayed — and decided — under the new configuration.
	Deferred int64 `json:"deferred"`
	// InFlightBefore and InFlightAfter count released-but-uncompleted jobs
	// on both sides of the swap; the protocol preserves them all.
	InFlightBefore int64 `json:"inflight_before"`
	InFlightAfter  int64 `json:"inflight_after"`
	// ReservationsReleased is the number of ledger contributions withdrawn
	// by the reservation rebase (AC leaving per-task).
	ReservationsReleased int `json:"reservations_released"`
	// NodeTimings records the per-node component swap durations of the live
	// protocol, keyed by node name (nil in the simulation binding).
	NodeTimings map[string]time.Duration `json:"node_timings_ns,omitempty"`
}
