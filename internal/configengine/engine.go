// Package configengine is the paper's front-end configuration engine
// (Section 6): it takes a workload specification and the developer's answers
// to four application-characteristic questions, maps them to admission
// control / idle resetting / load balancing strategies per Table 1,
// performs the feasibility check that rejects contradictory combinations,
// assigns EDMS priorities from end-to-end deadlines, and generates the
// XML-based deployment plan consumed by the deployment engine.
//
// Plan generation and delta emission are a deterministic surface: the same
// spec and answers must yield a byte-identical plan.
//
//rtmw:deterministic file
package configengine

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/live"
	"repro/internal/sched"
	"repro/internal/spec"
)

// Tolerance answers the engine's fourth question: "How much extra overhead
// can you accept as it potentially improves schedulability?"
type Tolerance int

// Tolerance levels (the paper's N / PT / PJ).
const (
	// ToleranceNone accepts no extra overhead.
	ToleranceNone Tolerance = iota + 1
	// TolerancePerTask accepts some overhead per task.
	TolerancePerTask
	// TolerancePerJob accepts some overhead per job.
	TolerancePerJob
)

// String returns the paper's abbreviation.
func (t Tolerance) String() string {
	switch t {
	case ToleranceNone:
		return "N"
	case TolerancePerTask:
		return "PT"
	case TolerancePerJob:
		return "PJ"
	default:
		return fmt.Sprintf("Tolerance(%d)", int(t))
	}
}

// ParseTolerance reads an N/PT/PJ answer.
func ParseTolerance(s string) (Tolerance, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "N", "NONE":
		return ToleranceNone, nil
	case "PT", "TASK", "PER-TASK":
		return TolerancePerTask, nil
	case "PJ", "JOB", "PER-JOB":
		return TolerancePerJob, nil
	default:
		return 0, fmt.Errorf("configengine: unknown overhead tolerance %q (want N, PT or PJ)", s)
	}
}

// Answers are the developer's responses to the engine's four questions.
type Answers struct {
	// JobSkipping: does the application allow job skipping? (criterion C1)
	JobSkipping bool
	// Replication: does the application have replicated components?
	// (criterion C3)
	Replication bool
	// StatePersistence: does the application require state persistence
	// between jobs of the same task? (criterion C2)
	StatePersistence bool
	// Overhead is the acceptable extra overhead (question 4).
	Overhead Tolerance
}

// DefaultAnswers returns the defaults the paper's engine supplies when the
// developer provides no characteristics: per-task admission control, idle
// resetting, and load balancing.
func DefaultAnswers() Answers {
	return Answers{
		JobSkipping:      false,
		Replication:      true,
		StatePersistence: true,
		Overhead:         TolerancePerTask,
	}
}

// Result is the engine's strategy selection with its reasoning trail.
type Result struct {
	// Config is the selected valid strategy combination.
	Config core.Config
	// Notes explain each mapping decision and any capping applied.
	Notes []string
}

// MapAnswers applies Table 1 and the overhead question to select a valid
// strategy combination:
//
//   - C1 (job skipping): no → AC per task; yes → AC per job (only spent when
//     the developer accepts per-job overhead).
//   - Overhead: none → no idle resetting; per task → IR per task; per job →
//     IR per job (capped to per task under AC per task, the feasibility rule
//     of Section 4.5).
//   - C3 (replication): no → no LB. C2 (state persistency): yes → LB per
//     task; no → LB per job, capped by the overhead tolerance.
func MapAnswers(a Answers) Result {
	if a.Overhead == 0 {
		a.Overhead = TolerancePerTask
	}
	var r Result

	// Admission control (criterion C1 + overhead).
	switch {
	case a.JobSkipping && a.Overhead == TolerancePerJob:
		r.Config.AC = core.StrategyPerJob
		r.note("AC per job: job skipping allowed and per-job overhead accepted (reduces admission pessimism)")
	case a.JobSkipping:
		r.Config.AC = core.StrategyPerTask
		r.note("AC per task: job skipping allowed but per-job overhead not accepted")
	default:
		r.Config.AC = core.StrategyPerTask
		r.note("AC per task: job skipping not allowed, so every admitted task must release all its jobs")
	}

	// Idle resetting (overhead tolerance, feasibility-capped).
	switch a.Overhead {
	case ToleranceNone:
		r.Config.IR = core.StrategyNone
		r.note("IR disabled: no extra overhead accepted")
	case TolerancePerTask:
		r.Config.IR = core.StrategyPerTask
		r.note("IR per task: resets completed aperiodic subjobs at idle time")
	case TolerancePerJob:
		if r.Config.AC == core.StrategyPerTask {
			r.Config.IR = core.StrategyPerTask
			r.note("IR capped to per task: per-job resetting contradicts per-task admission control (Section 4.5)")
		} else {
			r.Config.IR = core.StrategyPerJob
			r.note("IR per job: resets completed aperiodic and periodic subjobs")
		}
	}

	// Load balancing (criteria C3 and C2 + overhead).
	switch {
	case !a.Replication:
		r.Config.LB = core.StrategyNone
		r.note("LB disabled: components are not replicated, so subtasks cannot be re-allocated")
	case a.StatePersistence:
		r.Config.LB = core.StrategyPerTask
		r.note("LB per task: state persistency forbids re-allocating jobs of a running task")
	case a.Overhead == TolerancePerJob:
		r.Config.LB = core.StrategyPerJob
		r.note("LB per job: stateless tasks re-balance at every job arrival")
	case a.Overhead == TolerancePerTask:
		r.Config.LB = core.StrategyPerTask
		r.note("LB per task: stateless tasks balance once at first arrival within the accepted overhead")
	default:
		r.Config.LB = core.StrategyNone
		r.note("LB disabled: no extra overhead accepted")
	}

	if err := r.Config.Validate(); err != nil {
		// Unreachable by construction; surface loudly if the mapping ever
		// regresses.
		panic(fmt.Sprintf("configengine: mapping produced invalid config %s: %v", r.Config, err))
	}
	return r
}

// note appends one reasoning line.
func (r *Result) note(s string) { r.Notes = append(r.Notes, s) }

// ValidateConfig checks an explicitly chosen combination, for developers who
// bypass the questionnaire. It is the feasibility check that "detects and
// disallows" incompatible service configurations.
func ValidateConfig(cfg core.Config) error { return cfg.Validate() }

// RenderTable1 formats the paper's Table 1 (criteria → middleware
// strategies).
func RenderTable1() string {
	var b strings.Builder
	b.WriteString("Table 1: Criteria and Middleware Strategies\n")
	fmt.Fprintf(&b, "%-26s %-12s %s\n", "", "No", "Yes")
	fmt.Fprintf(&b, "%-26s %-12s %s\n", "C1: Job Skipping", "AC per Task", "AC per Job")
	fmt.Fprintf(&b, "%-26s %-12s %s\n", "C2: State Persistency", "LB per Job", "LB per Task")
	fmt.Fprintf(&b, "%-26s %-12s %s\n", "C3: Component Replication", "No LB", "LB")
	return b.String()
}

// GeneratePlan builds the XML deployment plan for a workload under a
// strategy combination over the given nodes: one task manager node hosting
// the Central-AC and Central-LB instances, and one application node per
// processor hosting a task effector, an idle resetter, and a subtask
// component instance for every (task, stage) homed or replicated there. It
// also emits the minimal event-channel federation routes.
func GeneratePlan(name string, w *spec.Workload, cfg core.Config, manager deploy.Node, apps []deploy.Node) (*deploy.Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tasks, err := w.SchedTasks()
	if err != nil {
		return nil, err
	}
	if len(apps) != w.Processors {
		return nil, fmt.Errorf("configengine: workload needs %d application nodes, got %d", w.Processors, len(apps))
	}
	nodeOf := make(map[int]string, len(apps))
	for i, n := range apps {
		if n.Processor != i {
			return nil, fmt.Errorf("configengine: application node %d declares processor %d", i, n.Processor)
		}
		nodeOf[i] = n.Name
	}
	wlJSON, err := w.Encode()
	if err != nil {
		return nil, err
	}
	workload := string(wlJSON)
	// Task i of the workload holds ref i.
	names := make([]string, len(tasks))
	for i, t := range tasks {
		names[i] = t.ID
	}
	refs := live.FormatTaskRefs(names)

	p := &deploy.Plan{Name: name}
	p.Nodes = append(p.Nodes, manager)
	p.Nodes = append(p.Nodes, apps...)

	// Central services on the task manager.
	p.Instances = append(p.Instances, deploy.Instance{
		ID: "Central-AC", Node: manager.Name, Implementation: live.ImplAdmissionController,
		ConfigProperties: []deploy.ConfigProperty{
			deploy.StringProperty(live.AttrACStrategy, cfg.AC.String()),
			deploy.StringProperty(live.AttrIRStrategy, cfg.IR.String()),
			deploy.StringProperty(live.AttrLBStrategy, cfg.LB.String()),
			deploy.StringProperty(live.AttrProcessors, strconv.Itoa(w.Processors)),
			deploy.StringProperty(live.AttrWorkload, workload),
			deploy.StringProperty(live.AttrTaskRefs, refs),
		},
	})
	p.Instances = append(p.Instances, deploy.Instance{
		ID: "Central-LB", Node: manager.Name, Implementation: live.ImplLoadBalancer,
		ConfigProperties: []deploy.ConfigProperty{
			deploy.StringProperty(live.AttrLBStrategy, cfg.LB.String()),
		},
	})

	// Per-processor task effectors, idle resetters, and heartbeat beacons.
	for i := range apps {
		p.Instances = append(p.Instances, deploy.Instance{
			ID: fmt.Sprintf("TE-%d", i), Node: nodeOf[i], Implementation: live.ImplTaskEffector,
			ConfigProperties: []deploy.ConfigProperty{
				deploy.StringProperty(live.AttrProcessor, strconv.Itoa(i)),
				deploy.StringProperty(live.AttrACStrategy, cfg.AC.String()),
				deploy.StringProperty(live.AttrLBStrategy, cfg.LB.String()),
				deploy.StringProperty(live.AttrWorkload, workload),
				deploy.StringProperty(live.AttrTaskRefs, refs),
			},
		})
		p.Instances = append(p.Instances, deploy.Instance{
			ID: fmt.Sprintf("IR-%d", i), Node: nodeOf[i], Implementation: live.ImplIdleResetter,
			ConfigProperties: []deploy.ConfigProperty{
				deploy.StringProperty(live.AttrProcessor, strconv.Itoa(i)),
				deploy.StringProperty(live.AttrIRStrategy, cfg.IR.String()),
			},
		})
		p.Instances = append(p.Instances, deploy.Instance{
			ID: fmt.Sprintf("HB-%d", i), Node: nodeOf[i], Implementation: live.ImplHeartbeatBeacon,
			ConfigProperties: []deploy.ConfigProperty{
				deploy.StringProperty(live.AttrProcessor, strconv.Itoa(i)),
			},
		})
	}

	// Subtask component instances: home plus duplicates. EDMS priorities
	// come from the deadline ordering (the engine "assigns priorities in
	// order of tasks' end-to-end deadlines").
	p.Instances = append(p.Instances, subtaskInstances(tasks, names, nodeOf)...)

	p.Connections = planConnections(tasks, cfg, manager.Name, nodeOf)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// subtaskInstances builds the Sub-* component instance declarations for the
// given tasks: one per (task, stage, candidate processor), home plus
// duplicates, carrying the task's ref in the refs table names and its
// current EDMS priority.
func subtaskInstances(tasks []*sched.Task, names []string, nodeOf map[int]string) []deploy.Instance {
	refOf := make(map[string]int, len(names))
	for i, name := range names {
		refOf[name] = i
	}
	var out []deploy.Instance
	for _, t := range tasks {
		for s, st := range t.Subtasks {
			last := s == len(t.Subtasks)-1
			for _, proc := range st.Candidates() {
				out = append(out, deploy.Instance{
					ID:             fmt.Sprintf("Sub-%s-%d@P%d", t.ID, s, proc),
					Node:           nodeOf[proc],
					Implementation: live.ImplSubtask,
					ConfigProperties: []deploy.ConfigProperty{
						deploy.StringProperty(live.AttrTask, t.ID),
						deploy.StringProperty(live.AttrTaskRef, strconv.Itoa(refOf[t.ID])),
						deploy.StringProperty(live.AttrStage, strconv.Itoa(s)),
						deploy.StringProperty(live.AttrExec, st.Exec.String()),
						deploy.StringProperty(live.AttrPriority, strconv.Itoa(t.Priority)),
						deploy.StringProperty(live.AttrDeadline, t.Deadline.String()),
						deploy.StringProperty(live.AttrKind, t.Kind.String()),
						deploy.StringProperty(live.AttrLast, strconv.FormatBool(last)),
						deploy.StringProperty(live.AttrProcessor, strconv.Itoa(proc)),
					},
				})
			}
		}
	}
	return out
}

// ReconfigDelta computes the minimal reconfiguration transaction that moves
// a running deployment — described by the plan it was launched from — to the
// target strategy combination: per-instance attribute updates for the
// strategy-bearing components (the central AC and LB, every idle resetter,
// and every task effector's AC and LB) plus the federation routes the new
// configuration needs that the plan does not already wire. The target is
// validated through the same feasibility rules as a fresh configuration, so
// a contradictory combination is rejected before anything touches the
// running system. The current combination is read back from the plan's
// admission controller instance.
func ReconfigDelta(p *deploy.Plan, to core.Config) (*deploy.Delta, error) {
	if err := to.Validate(); err != nil {
		return nil, err
	}
	st, err := readPlanState(p)
	if err != nil {
		return nil, err
	}
	acInst, from, tasks, nodeOf := st.ac, st.config, st.tasks, st.nodeOf

	d := &deploy.Delta{
		Plan:        p,
		FromConfig:  from.String(),
		ToConfig:    to.String(),
		ManagerNode: acInst.Node,
		ManagerKey:  live.ReconfigServantKey,
		EpochAttr:   live.AttrEpoch,
	}

	// Manager-hosted instances first: the policy object must swap before
	// the effector caches reset, so a reset cache can only refill with
	// new-configuration decisions.
	d.Updates = append(d.Updates, deploy.InstanceUpdate{
		ID: acInst.ID, Node: acInst.Node,
		Attrs: map[string]string{
			live.AttrACStrategy: to.AC.String(),
			live.AttrIRStrategy: to.IR.String(),
			live.AttrLBStrategy: to.LB.String(),
		},
	})
	for _, inst := range p.Instances {
		switch inst.Implementation {
		case live.ImplLoadBalancer:
			d.Updates = append(d.Updates, deploy.InstanceUpdate{
				ID: inst.ID, Node: inst.Node,
				Attrs: map[string]string{live.AttrLBStrategy: to.LB.String()},
			})
		case live.ImplIdleResetter:
			d.Updates = append(d.Updates, deploy.InstanceUpdate{
				ID: inst.ID, Node: inst.Node,
				Attrs: map[string]string{live.AttrIRStrategy: to.IR.String()},
			})
		case live.ImplTaskEffector:
			// The hold rule and the per-task cache follow the AC and LB.
			d.Updates = append(d.Updates, deploy.InstanceUpdate{
				ID: inst.ID, Node: inst.Node,
				Attrs: map[string]string{live.AttrACStrategy: to.AC.String(), live.AttrLBStrategy: to.LB.String()},
			})
		}
	}

	addRoutes(d, tasks, to, nodeOf)
	return d, nil
}

// planState is the running deployment's configuration and task set, read
// back from its plan: the admission controller instance, the active strategy
// combination, the parsed workload, the scheduling-model tasks, the task
// refs table (live.ParseTaskRefs) and the processor → node map.
type planState struct {
	ac       *deploy.Instance
	config   core.Config
	workload *spec.Workload
	tasks    []*sched.Task
	names    []string
	nodeOf   map[int]string
}

// readPlanState reads the running configuration and task set from the plan's
// admission controller instance.
func readPlanState(p *deploy.Plan) (*planState, error) {
	var acInst *deploy.Instance
	for i := range p.Instances {
		if p.Instances[i].Implementation == live.ImplAdmissionController {
			acInst = &p.Instances[i]
			break
		}
	}
	if acInst == nil {
		return nil, fmt.Errorf("configengine: plan %q has no admission controller instance", p.Name)
	}
	acAttrs := acInst.Attrs()
	var from core.Config
	var err error
	if from.AC, err = planStrategy(acAttrs, live.AttrACStrategy); err != nil {
		return nil, err
	}
	if from.IR, err = planStrategy(acAttrs, live.AttrIRStrategy); err != nil {
		return nil, err
	}
	if from.LB, err = planStrategy(acAttrs, live.AttrLBStrategy); err != nil {
		return nil, err
	}
	wlJSON, ok := acAttrs[live.AttrWorkload]
	if !ok {
		return nil, fmt.Errorf("configengine: plan %q: admission controller has no workload attribute", p.Name)
	}
	w, err := spec.Parse([]byte(wlJSON))
	if err != nil {
		return nil, err
	}
	tasks, err := w.SchedTasks()
	if err != nil {
		return nil, err
	}
	names, err := live.ParseTaskRefs(acAttrs[live.AttrTaskRefs])
	if err != nil {
		return nil, fmt.Errorf("configengine: plan %q: %w", p.Name, err)
	}
	nodeOf := make(map[int]string, len(p.Nodes))
	for _, n := range p.Nodes {
		if n.Processor >= 0 {
			nodeOf[n.Processor] = n.Name
		}
	}
	return &planState{ac: acInst, config: from, workload: w, tasks: tasks, names: names, nodeOf: nodeOf}, nil
}

// taskSetDelta builds the shared shape of an open-world task-set
// reconfiguration: the strategy combination is untouched; the AC and every
// TE adopt the new workload with its refs table names, and surviving
// subtask instances whose EDMS priority changed under the re-assignment get
// priority updates.
func taskSetDelta(p *deploy.Plan, st *planState, next []*sched.Task, names []string) (*deploy.Delta, error) {
	nextSpec := spec.FromTasks(st.workload.Name, st.workload.Processors, next)
	wlJSON, err := nextSpec.Encode()
	if err != nil {
		return nil, err
	}
	taskSet := map[string]string{live.AttrWorkload: string(wlJSON), live.AttrTaskRefs: live.FormatTaskRefs(names)}

	d := &deploy.Delta{
		Plan:        p,
		FromConfig:  st.config.String(),
		ToConfig:    st.config.String(),
		ManagerNode: st.ac.Node,
		ManagerKey:  live.ReconfigServantKey,
		EpochAttr:   live.AttrEpoch,
	}
	// Manager-hosted instances first (the AC must learn the new task set —
	// and withdraw departed tasks' ledger contributions — before effector
	// caches reset and refill).
	d.Updates = append(d.Updates, deploy.InstanceUpdate{ID: st.ac.ID, Node: st.ac.Node, Attrs: maps.Clone(taskSet)})
	prio := make(map[string]int, len(next))
	for _, t := range next {
		prio[t.ID] = t.Priority
	}
	for _, inst := range p.Instances {
		switch inst.Implementation {
		case live.ImplTaskEffector:
			d.Updates = append(d.Updates, deploy.InstanceUpdate{ID: inst.ID, Node: inst.Node, Attrs: maps.Clone(taskSet)})
		case live.ImplSubtask:
			attrs := inst.Attrs()
			newPrio, ok := prio[attrs[live.AttrTask]]
			if !ok {
				// A departed task's instance: it stays installed to drain its
				// in-flight jobs and goes inert once they finish.
				continue
			}
			if attrs[live.AttrPriority] == strconv.Itoa(newPrio) {
				continue
			}
			d.Updates = append(d.Updates, deploy.InstanceUpdate{
				ID: inst.ID, Node: inst.Node,
				Attrs: map[string]string{live.AttrPriority: strconv.Itoa(newPrio)},
			})
		}
	}
	return d, nil
}

// AddTasksDelta computes the reconfiguration transaction that registers new
// tasks on a running deployment: the union workload (with EDMS priorities
// re-assigned over it) is pushed to the admission controller and every
// task effector; the added tasks' subtask component
// instances install onto the running nodes; surviving instances whose
// priority changed under the re-assignment are updated in place; and the
// federation routes the enlarged task set needs beyond the running plan's
// are wired. The launcher executes it under the same quiesce protocol as a
// strategy swap, so no in-flight decision ever observes a half-updated task
// set.
func AddTasksDelta(p *deploy.Plan, add []*sched.Task) (*deploy.Delta, error) {
	if len(add) == 0 {
		return nil, fmt.Errorf("configengine: add tasks: empty task list")
	}
	st, err := readPlanState(p)
	if err != nil {
		return nil, err
	}
	existing := make(map[string]bool, len(st.tasks))
	for _, t := range st.tasks {
		existing[t.ID] = true
	}
	union := append([]*sched.Task{}, st.tasks...)
	for _, t := range add {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if existing[t.ID] {
			return nil, fmt.Errorf("configengine: add tasks: %w: %q", core.ErrTaskExists, t.ID)
		}
		existing[t.ID] = true
		for _, sub := range t.Subtasks {
			for _, proc := range sub.Candidates() {
				if proc >= st.workload.Processors {
					return nil, fmt.Errorf("configengine: add tasks: task %s references processor %d but deployment has %d",
						t.ID, proc, st.workload.Processors)
				}
			}
		}
		union = append(union, t.Clone())
	}
	sched.AssignEDMSPriorities(union)

	// The added tasks take the next refs: a removed task added again under
	// its old ID gets one it never held.
	added := union[len(st.tasks):]
	names := slices.Clone(st.names)
	for _, t := range added {
		names = append(names, t.ID)
	}
	d, err := taskSetDelta(p, st, union, names)
	if err != nil {
		return nil, err
	}
	d.Installs = subtaskInstances(added, names, st.nodeOf)
	addRoutes(d, union, st.config, st.nodeOf)
	return d, nil
}

// RemoveTasksDelta computes the reconfiguration transaction that withdraws
// tasks from a running deployment: the shrunken workload (EDMS priorities
// re-assigned over the survivors) is pushed to the admission controller —
// which releases the departed tasks' remaining ledger contributions — and
// every task effector. The departed tasks' subtask
// instances stay installed so their in-flight jobs drain; they go inert once
// no effector can release jobs for them. Routes are never removed (a stale
// route only forwards events nobody publishes).
func RemoveTasksDelta(p *deploy.Plan, ids []string) (*deploy.Delta, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("configengine: remove tasks: empty ID list")
	}
	st, err := readPlanState(p)
	if err != nil {
		return nil, err
	}
	drop := make(map[string]bool, len(ids))
	for _, id := range ids {
		if drop[id] {
			return nil, fmt.Errorf("configengine: remove tasks: duplicate ID %q", id)
		}
		drop[id] = true
	}
	remaining := make([]*sched.Task, 0, len(st.tasks))
	for _, t := range st.tasks {
		if drop[t.ID] {
			delete(drop, t.ID)
			continue
		}
		remaining = append(remaining, t)
	}
	// Report the first unknown ID in the caller's argument order, not an
	// arbitrary one from map order.
	for _, id := range ids {
		if drop[id] {
			return nil, fmt.Errorf("configengine: remove tasks: %w: %q", core.ErrUnknownTask, id)
		}
	}
	if len(remaining) == 0 {
		return nil, fmt.Errorf("configengine: remove tasks: cannot remove every task from the deployment")
	}
	sched.AssignEDMSPriorities(remaining)
	return taskSetDelta(p, st, remaining, retire(st.names, ids))
}

// retire returns a copy of a refs table with the given tasks' refs retired.
func retire(names, ids []string) []string {
	out := slices.Clone(names)
	for i, name := range out {
		if slices.Contains(ids, name) {
			out[i] = ""
		}
	}
	return out
}

// FailoverOutcome describes the workload surgery a failover delta performs.
type FailoverOutcome struct {
	// Rehomed maps task IDs to the stages that moved off the dead processor
	// (stage index → surviving processor).
	Rehomed map[string]map[int]int
	// Withdrawn lists tasks that could not survive the loss: some stage had
	// neither a surviving home nor a surviving replica. Their admission
	// state is withdrawn by the delta.
	Withdrawn []string
}

// FailoverDelta computes the reconfiguration transaction that removes a dead
// processor from a running deployment: every task stage homed on the dead
// processor is re-homed onto its lowest-numbered surviving replica, the dead
// processor disappears from every replica list, tasks with an unreplicated
// stage on the dead processor are withdrawn (their admission state is
// released; in-flight jobs of such tasks are lost with the node — that is
// what replication is for), EDMS priorities are re-assigned over the
// survivors, and the dead node is listed in SkipNodes so the executor never
// RPCs it while Apply still folds the full update set into the plan (a later
// node recovery reinstalls from that plan state).
//
// The delta deliberately does not shrink the processor count: the dead
// processor keeps its slot in the ledger (its residual contributions age out
// by deadline expiry) and a recovered node can reclaim it.
func FailoverDelta(p *deploy.Plan, deadProc int) (*deploy.Delta, *FailoverOutcome, error) {
	st, err := readPlanState(p)
	if err != nil {
		return nil, nil, err
	}
	deadNode, ok := st.nodeOf[deadProc]
	if !ok {
		return nil, nil, fmt.Errorf("configengine: failover: no node hosts processor %d", deadProc)
	}

	out := &FailoverOutcome{Rehomed: make(map[string]map[int]int)}
	var next []*sched.Task
	for _, t := range st.tasks {
		nt := t.Clone()
		lost := false
		for s := range nt.Subtasks {
			sub := &nt.Subtasks[s]
			survivors := make([]int, 0, len(sub.Replicas))
			for _, r := range sub.Replicas {
				if r != deadProc {
					survivors = append(survivors, r)
				}
			}
			if sub.Processor == deadProc {
				if len(survivors) == 0 {
					lost = true
					break
				}
				// Lowest-numbered surviving replica becomes the home:
				// deterministic, and its subtask instance is already
				// installed (duplicates deploy with the plan).
				best := survivors[0]
				for _, r := range survivors[1:] {
					if r < best {
						best = r
					}
				}
				rest := make([]int, 0, len(survivors)-1)
				for _, r := range survivors {
					if r != best {
						rest = append(rest, r)
					}
				}
				sub.Processor = best
				sub.Replicas = rest
				if out.Rehomed[nt.ID] == nil {
					out.Rehomed[nt.ID] = make(map[int]int)
				}
				out.Rehomed[nt.ID][s] = best
			} else {
				sub.Replicas = survivors
			}
		}
		if lost {
			out.Withdrawn = append(out.Withdrawn, t.ID)
			continue
		}
		next = append(next, nt)
	}
	if len(next) == 0 {
		return nil, nil, fmt.Errorf("configengine: failover: no task survives the loss of processor %d", deadProc)
	}
	sched.AssignEDMSPriorities(next)

	d, err := taskSetDelta(p, st, next, retire(st.names, out.Withdrawn))
	if err != nil {
		return nil, nil, err
	}
	d.SkipNodes = []string{deadNode}
	addRoutes(d, next, st.config, st.nodeOf)
	return d, out, nil
}

// addRoutes appends to d the federation routes tasks need under cfg beyond
// the running plan's. The gateway ignores re-adds, so the subtraction only
// keeps the delta minimal and says what actually changes. Routes touching a
// skipped node are left out: the executor would skip them, and the plan
// should not accumulate them either.
func addRoutes(d *deploy.Delta, tasks []*sched.Task, cfg core.Config, nodeOf map[int]string) {
	have := make(map[deploy.Connection]bool, len(d.Plan.Connections))
	for _, c := range d.Plan.Connections {
		have[c] = true
	}
	for _, c := range planConnections(tasks, cfg, d.ManagerNode, nodeOf) {
		if !have[c] && !slices.Contains(d.SkipNodes, c.SourceNode) && !slices.Contains(d.SkipNodes, c.SinkNode) {
			d.Connections = append(d.Connections, c)
		}
	}
}

// planStrategy reads one strategy attribute from a plan instance.
func planStrategy(attrs map[string]string, key string) (core.Strategy, error) {
	v, ok := attrs[key]
	if !ok {
		return 0, fmt.Errorf("configengine: plan instance missing attribute %q", key)
	}
	s, err := core.ParseStrategy(v)
	if err != nil {
		return 0, fmt.Errorf("configengine: attribute %q: %w", key, err)
	}
	return s, nil
}

// planConnections computes the minimal federation routes.
func planConnections(tasks []*sched.Task, cfg core.Config, manager string, nodeOf map[int]string) []deploy.Connection {
	type route struct {
		ev, src, dst string
	}
	seen := make(map[route]bool)
	var out []deploy.Connection
	add := func(ev, src, dst string) {
		if src == dst {
			return
		}
		r := route{ev, src, dst}
		if seen[r] {
			return
		}
		seen[r] = true
		out = append(out, deploy.Connection{EventType: ev, SourceNode: src, SinkNode: dst})
	}

	for _, t := range tasks {
		home := nodeOf[t.Subtasks[0].Processor]
		// Arrivals flow home → manager; decisions flow back.
		add(live.EvTaskArrive, home, manager)
		add(live.EvAccept, manager, home)
		// Releases reach every processor that may host the first stage.
		for _, proc := range t.Subtasks[0].Candidates() {
			add(live.EvRelease, home, nodeOf[proc])
		}
		// Triggers connect every candidate of stage s to every candidate of
		// stage s+1.
		for s := 0; s+1 < len(t.Subtasks); s++ {
			for _, from := range t.Subtasks[s].Candidates() {
				for _, to := range t.Subtasks[s+1].Candidates() {
					add(live.EvTrigger, nodeOf[from], nodeOf[to])
				}
			}
		}
	}
	// Node-fanout routes walk processors in ascending order so the emitted
	// connection list — and therefore the plan bytes — are deterministic.
	procs := make([]int, 0, len(nodeOf))
	for p := range nodeOf {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	// Idle resetting reports flow from every application node to the
	// manager, unless resetting is disabled.
	if cfg.IR != core.StrategyNone {
		for _, p := range procs {
			add(live.EvIdleReset, nodeOf[p], manager)
		}
	}
	// Heartbeat beacons flow from every application node to the manager's
	// failure detector.
	for _, p := range procs {
		add(live.EvHeartbeat, nodeOf[p], manager)
	}
	return out
}
