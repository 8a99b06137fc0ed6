package live

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ccm"
	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

// Subtask attribute names.
const (
	AttrTask     = "Task"
	AttrStage    = "Stage"
	AttrExec     = "Exec"
	AttrPriority = "Priority"
	AttrDeadline = "Deadline"
	AttrKind     = "Kind"
	AttrLast     = "Last"
)

// Subtask is the live F/I Subtask and Last Subtask component: it owns a
// dispatch slot at a fixed EDMS priority in the node's executor, consumes
// Release (stage 0) and Trigger (later stages) events targeted at its
// (task, stage, processor) identity, executes the subjob, reports the
// completion to the local IR component, and either publishes the next
// Trigger (F/I) or the Done notification (Last) — the paper's two subtask
// component kinds, unified by the Last attribute.
//
// One instance is deployed per (task, stage) on the stage's home processor
// and on every replica processor (the duplicates in Figure 1).
type Subtask struct {
	task     string
	stage    int
	exec     time.Duration
	deadline time.Duration
	kind     sched.TaskKind
	last     bool
	proc     int

	// priority is the EDMS dispatch priority. It is atomic because the
	// open-world AddTasks delta re-assigns priorities over the union task set
	// while delivery goroutines keep submitting subjobs.
	priority atomic.Int32

	ch       *eventchan.Channel
	executor *Executor
	scale    float64

	// ReleaseHandle measures the paper's operations 5/6: handling a Release
	// event through submission to the dispatch queue (on the home processor
	// that is "release the task"; on a replica it is "release the duplicate
	// task").
	ReleaseHandle core.OpStats
}

var _ ccm.Component = (*Subtask)(nil)

// NewSubtask returns an unconfigured subtask component.
func NewSubtask() *Subtask { return &Subtask{} }

// Configure parses the instance attributes.
func (s *Subtask) Configure(attrs map[string]string) error {
	var err error
	if s.task, err = attrString(attrs, AttrTask); err != nil {
		return err
	}
	if s.stage, err = attrInt(attrs, AttrStage); err != nil {
		return err
	}
	if s.exec, err = attrDuration(attrs, AttrExec); err != nil {
		return err
	}
	prio, err := attrInt(attrs, AttrPriority)
	if err != nil {
		return err
	}
	s.priority.Store(int32(prio))
	if s.deadline, err = attrDuration(attrs, AttrDeadline); err != nil {
		return err
	}
	if s.proc, err = attrInt(attrs, AttrProcessor); err != nil {
		return err
	}
	if s.last, err = attrBool(attrs, AttrLast); err != nil {
		return err
	}
	kind, err := attrString(attrs, AttrKind)
	if err != nil {
		return err
	}
	switch kind {
	case "periodic":
		s.kind = sched.Periodic
	case "aperiodic":
		s.kind = sched.Aperiodic
	default:
		return fmt.Errorf("live: subtask kind %q invalid", kind)
	}
	return nil
}

// Activate wires the component's ports and dispatch thread.
func (s *Subtask) Activate(ctx *ccm.Context) error {
	exec, _ := ctx.Service(SvcExecutor).(*Executor)
	if exec == nil {
		return errors.New("live: subtask requires an executor service")
	}
	s.executor = exec
	s.scale = 1
	if sc, ok := ctx.Service(SvcExecScale).(float64); ok && sc > 0 {
		s.scale = sc
	}
	s.ch = ctx.Events
	if s.stage == 0 {
		ctx.Events.Subscribe(EvRelease, s.onTrigger)
	} else {
		ctx.Events.Subscribe(EvTrigger, s.onTrigger)
	}
	return nil
}

// Passivate is a no-op: the executor drains at node shutdown.
func (s *Subtask) Passivate() error { return nil }

// Reconfigure adopts a re-assigned EDMS priority (the open-world AddTasks
// delta renumbers priorities over the union task set). Subjobs already in
// the dispatch queue keep the priority they were submitted with; subsequent
// releases use the new value. Other attributes are coordination state and
// ignored.
func (s *Subtask) Reconfigure(attrs map[string]string) error {
	if _, ok := attrs[AttrPriority]; !ok {
		return nil
	}
	prio, err := attrInt(attrs, AttrPriority)
	if err != nil {
		return err
	}
	s.priority.Store(int32(prio))
	return nil
}

var _ ccm.Reconfigurable = (*Subtask)(nil)

// onTrigger filters events for this instance and submits the subjob. Every
// subtask on the node sees every Release or Trigger event, so the filter
// reads the encoded header in place; only the addressed instance decodes.
func (s *Subtask) onTrigger(ev eventchan.Event) {
	start := time.Now()
	if !triggerAddressedTo(ev.Payload, s.task, s.stage, s.proc) {
		return
	}
	trg, err := DecodeTrigger(ev.Payload)
	if err != nil {
		return
	}
	s.executor.Submit(int(s.priority.Load()), func() { s.run(trg) })
	if s.stage == 0 {
		s.ReleaseHandle.Add(time.Since(start))
	}
}

// stageProc is the processor a placement runs stage s on — the node a
// Release or Trigger for that stage is addressed to. A placement that does
// not reach s addresses no one in particular: the event is broadcast, and no
// subtask's filter accepts it.
func stageProc(placement []sched.PlacedStage, s int) int {
	if s < 0 || s >= len(placement) {
		return eventchan.NoProcessor
	}
	return placement[s].Proc
}

// run executes one subjob and drives the completion protocol.
func (s *Subtask) run(trg Trigger) {
	BusyWait(time.Duration(float64(s.exec) * s.scale))

	// Paper: "Both F/I Subtask and Last Subtask components call the
	// Complete method of the local IR component" — a local event here.
	deadline := time.Unix(0, trg.ArrivalNanos).Add(s.deadline)
	_ = s.ch.Push(eventchan.Event{Type: EvComplete, Payload: AppendComplete(nil, &Complete{
		Ref:           sched.JobRef{Task: trg.Task, Job: trg.Job},
		Stage:         s.stage,
		Kind:          s.kind,
		DeadlineNanos: deadline.UnixNano(),
	})})

	if s.last {
		_ = s.ch.Push(eventchan.Event{Type: EvDone, Payload: AppendDone(nil, &Done{
			Task:         trg.Task,
			Job:          trg.Job,
			ArrivalNanos: trg.ArrivalNanos,
			DoneNanos:    nowNanos(),
		})})
		return
	}
	trg.Stage++
	// Only the next stage's processor acts on the trigger
	// (triggerAddressedTo); the gateway skips the other candidates' nodes.
	_ = s.ch.PushTo(stageProc(trg.Placement, trg.Stage), eventchan.Event{Type: EvTrigger, Payload: AppendTrigger(nil, &trg)})
}
