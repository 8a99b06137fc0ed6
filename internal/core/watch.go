package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// WatchKind labels one lifecycle transition delivered on a watch stream.
type WatchKind int32

// Watch event kinds. Admitted/Rejected are admission outcomes, Completed and
// DeadlineMiss are execution outcomes, TaskAdded/TaskRemoved are structural
// task-set changes, and Reconfigured marks a completed strategy swap.
const (
	// WatchAdmitted fires when a job is released for execution (an accepted
	// admission decision, or the per-task cached fast path).
	WatchAdmitted WatchKind = iota + 1
	// WatchRejected fires when a job is skipped: the admission test rejected
	// it, its task's cached per-task decision was a rejection, its task was
	// removed while the job awaited a decision, or the request the job waited
	// on was lost (live binding). Each skipped job gets one.
	WatchRejected
	// WatchCompleted fires when a job's last subjob finishes.
	WatchCompleted
	// WatchDeadlineMiss fires alongside WatchCompleted when the job's
	// end-to-end response time exceeded its deadline.
	WatchDeadlineMiss
	// WatchTaskAdded fires when AddTasks registers a task on the running
	// binding.
	WatchTaskAdded
	// WatchTaskRemoved fires when RemoveTasks withdraws a task.
	WatchTaskRemoved
	// WatchReconfigured fires when a strategy swap completes (the epoch
	// advanced).
	WatchReconfigured
	// WatchNodeDown fires when the failure detector declares a node dead
	// (live binding only). Task carries the node name; Job is -1.
	WatchNodeDown
	// WatchNodeRecovered fires when a previously dead node rejoins the
	// cluster as standby capacity. Task carries the node name; Job is -1.
	WatchNodeRecovered
)

// String returns the lowercase event name.
func (k WatchKind) String() string {
	switch k {
	case WatchAdmitted:
		return "admitted"
	case WatchRejected:
		return "rejected"
	case WatchCompleted:
		return "completed"
	case WatchDeadlineMiss:
		return "deadline-miss"
	case WatchTaskAdded:
		return "task-added"
	case WatchTaskRemoved:
		return "task-removed"
	case WatchReconfigured:
		return "reconfigured"
	case WatchNodeDown:
		return "node-down"
	case WatchNodeRecovered:
		return "node-recovered"
	default:
		return fmt.Sprintf("WatchKind(%d)", int32(k))
	}
}

// WatchEvent is one typed lifecycle event on a watch stream.
type WatchEvent struct {
	// Seq is the binding-wide emission sequence number: every stream observes
	// its delivered events in strictly increasing Seq order, and two events
	// share a Seq only if they are the same event.
	Seq int64
	// Kind is the transition type.
	Kind WatchKind
	// Task names the task; Job is the release number for job-level kinds
	// (Admitted, Rejected, Completed, DeadlineMiss) and -1 otherwise.
	Task string
	Job  int64
	// At is the binding's time at emission: virtual time on the simulation
	// binding, wall-clock UnixNano (as a Duration since the epoch) on the
	// live binding.
	At time.Duration
	// Placement is the admitted job's stage assignment (Admitted only).
	// Callers must treat it as read-only.
	Placement []sched.PlacedStage
	// Response is the end-to-end response time (Completed, DeadlineMiss).
	Response time.Duration
	// Config and Epoch describe the configuration entered by a Reconfigured
	// event; Epoch is also stamped on every other kind so consumers can
	// attribute events to configuration eras.
	Config Config
	Epoch  int64
}

// WatchOptions filters and sizes a watch subscription.
type WatchOptions struct {
	// Kinds selects the event kinds to deliver; nil or empty delivers all.
	Kinds []WatchKind
	// Buffer is the stream's queue depth (default 1024). When the consumer
	// falls behind and the buffer fills, new events are dropped (counted by
	// Dropped) rather than blocking the binding: the watch stream is an
	// observation plane, never a brake on the middleware.
	Buffer int
}

// DefaultWatchBuffer is the stream queue depth when WatchOptions.Buffer is
// unset.
const DefaultWatchBuffer = 1024

// WatchStream is one ordered subscription of lifecycle events. Events arrive
// on Events() in strictly increasing Seq order; the channel closes when the
// stream is cancelled or the binding stops.
type WatchStream struct {
	hub     *WatchHub
	kinds   uint32 // bitmask over WatchKind; 0 = all
	ch      chan WatchEvent
	dropped atomic.Int64
	closed  bool // guarded by hub.mu
}

// Events returns the stream's delivery channel. It is closed by Cancel and by
// the binding's Stop, so consumers can range over it.
func (w *WatchStream) Events() <-chan WatchEvent { return w.ch }

// Dropped reports how many events this stream discarded because its buffer
// was full.
func (w *WatchStream) Dropped() int64 { return w.dropped.Load() }

// Cancel detaches the stream and closes its channel. Safe to call twice.
func (w *WatchStream) Cancel() { w.hub.cancel(w) }

// wants reports whether the stream's kind filter matches.
func (w *WatchStream) wants(k WatchKind) bool {
	return w.kinds == 0 || w.kinds&(1<<uint32(k)) != 0
}

// WatchHub is the shared fan-out behind both bindings' Watch implementation:
// it assigns the binding-wide sequence numbers and delivers each event to
// every matching stream under one lock, which is what makes per-stream
// delivery totally ordered. Emission with no subscribers is a single atomic
// load, so an unwatched binding pays nothing on its hot path.
type WatchHub struct {
	mu      sync.Mutex
	seq     int64
	streams []*WatchStream
	active  atomic.Int32
	// dropped accumulates events dropped across every stream over the hub's
	// lifetime — the binding-wide sensor-loss counter Snapshot exposes.
	dropped atomic.Int64
	// done marks a hub whose binding stopped: later Subscribe calls get an
	// already-closed stream instead of one nothing will ever close (the
	// stopped check and the subscription are not atomic at the bindings).
	done bool
}

// Active reports whether any stream is subscribed; producers use it to skip
// event construction entirely when nobody is watching.
func (h *WatchHub) Active() bool { return h.active.Load() > 0 }

// Dropped returns the total events dropped across all streams (past and
// present) because a subscriber's buffer was full.
func (h *WatchHub) Dropped() int64 { return h.dropped.Load() }

// Subscribe attaches a new stream.
func (h *WatchHub) Subscribe(opts WatchOptions) *WatchStream {
	buf := opts.Buffer
	if buf <= 0 {
		buf = DefaultWatchBuffer
	}
	var mask uint32
	for _, k := range opts.Kinds {
		mask |= 1 << uint32(k)
	}
	w := &WatchStream{hub: h, kinds: mask, ch: make(chan WatchEvent, buf)}
	h.mu.Lock()
	if h.done {
		w.closed = true
		close(w.ch)
		h.mu.Unlock()
		return w
	}
	h.streams = append(h.streams, w)
	h.active.Store(int32(len(h.streams)))
	h.mu.Unlock()
	return w
}

// Emit stamps the event with the next sequence number and delivers it to
// every matching stream, dropping (and counting) on full buffers.
func (h *WatchHub) Emit(ev WatchEvent) {
	if !h.Active() {
		return
	}
	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	for _, w := range h.streams {
		if !w.wants(ev.Kind) {
			continue
		}
		select {
		case w.ch <- ev:
		default:
			w.dropped.Add(1)
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// cancel detaches one stream and closes its channel.
func (h *WatchHub) cancel(w *WatchStream) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	for i, other := range h.streams {
		if other == w {
			h.streams = append(h.streams[:i], h.streams[i+1:]...)
			break
		}
	}
	h.active.Store(int32(len(h.streams)))
	close(w.ch)
}

// CloseAll cancels every stream and marks the hub done (the binding's Stop
// path); streams subscribed afterwards arrive already closed.
func (h *WatchHub) CloseAll() {
	h.mu.Lock()
	streams := h.streams
	h.streams = nil
	h.active.Store(0)
	h.done = true
	for _, w := range streams {
		if !w.closed {
			w.closed = true
			close(w.ch)
		}
	}
	h.mu.Unlock()
}
