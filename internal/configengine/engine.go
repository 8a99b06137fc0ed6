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
// strategy combination over the given nodes (planFor): one task manager
// node hosting the Central-AC and Central-LB instances, and one
// application node per processor. Task i of the workload holds ref i.
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
	for i, n := range apps {
		if n.Processor != i {
			return nil, fmt.Errorf("configengine: application node %d declares processor %d", i, n.Processor)
		}
	}
	names := make([]string, len(tasks))
	for i, t := range tasks {
		names[i] = t.ID
	}
	p, err := planFor(name, w, names, cfg, append([]deploy.Node{manager}, apps...))
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// planFor renders the deployment plan for workload w under cfg over nodes —
// the task manager, then the application nodes — with the task refs table
// names (a task's ID at its ref, "" at a retired one). The task manager
// hosts the Central-AC and Central-LB instances; every application node a
// task effector, an idle resetter, a heartbeat beacon, and a subtask
// component instance for every (task, stage) homed or replicated there,
// carrying the task's EDMS priority (the engine "assigns priorities in
// order of tasks' end-to-end deadlines"); and the connections are the
// minimal event-channel federation routes. A subtask instance's ID names
// its task's incarnation by the task's ref, so a task removed and added
// again installs instances of its own beside the old ones still draining.
// GeneratePlan renders a fresh deployment with it, and every
// reconfiguration the deployment it moves to (deltaTo).
func planFor(name string, w *spec.Workload, names []string, cfg core.Config, nodes []deploy.Node) (*deploy.Plan, error) {
	tasks, err := w.SchedTasks()
	if err != nil {
		return nil, err
	}
	wlJSON, err := w.Encode()
	if err != nil {
		return nil, err
	}
	workload, refs := string(wlJSON), live.FormatTaskRefs(names)
	manager := nodes[0].Name
	nodeOf := make(map[int]string, len(nodes)-1)
	for _, n := range nodes[1:] {
		nodeOf[n.Processor] = n.Name
	}

	p := &deploy.Plan{Name: name, Nodes: nodes}
	p.Instances = append(p.Instances, deploy.Instance{
		ID: "Central-AC", Node: manager, Implementation: live.ImplAdmissionController,
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
		ID: "Central-LB", Node: manager, Implementation: live.ImplLoadBalancer,
		ConfigProperties: []deploy.ConfigProperty{
			deploy.StringProperty(live.AttrLBStrategy, cfg.LB.String()),
		},
	})
	for i := 0; i < w.Processors; i++ {
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
	refOf := make(map[string]int, len(names))
	for i, name := range names {
		refOf[name] = i
	}
	for _, t := range tasks {
		ref := refOf[t.ID]
		for s, st := range t.Subtasks {
			last := s == len(t.Subtasks)-1
			for _, proc := range st.Candidates() {
				p.Instances = append(p.Instances, deploy.Instance{
					ID:             fmt.Sprintf("Sub-%s#%d-%d@P%d", t.ID, ref, s, proc),
					Node:           nodeOf[proc],
					Implementation: live.ImplSubtask,
					ConfigProperties: []deploy.ConfigProperty{
						deploy.StringProperty(live.AttrTask, t.ID),
						deploy.StringProperty(live.AttrTaskRef, strconv.Itoa(ref)),
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
	p.Connections = planConnections(tasks, cfg, manager, nodeOf)
	return p, nil
}

// deltaTo returns the reconfiguration delta that moves the running
// deployment to target, the plan planFor renders for what it should become,
// with instances matched by ID:
//
//   - the target's instances the running plan lacks install;
//   - every running instance the target keeps is updated with the
//     attributes whose value the target changes, in running plan order (the
//     Central-AC is rendered first, so the policy object swaps before the
//     effector caches reset);
//   - the target's routes the running plan lacks are wired, less those
//     touching a skipped node: the executor would not send them, and the
//     plan should not accumulate them either;
//   - nothing is removed: a departed task's instances stay installed to
//     drain their in-flight jobs and go inert, and a stale route only
//     forwards events nobody publishes.
func deltaTo(running, target *deploy.Plan, skip ...string) *deploy.Delta {
	d := &deploy.Delta{Plan: running, SkipNodes: skip, ManagerKey: live.ReconfigServantKey, EpochAttr: live.AttrEpoch}
	want := make(map[string]*deploy.Instance, len(target.Instances))
	for i := range target.Instances {
		want[target.Instances[i].ID] = &target.Instances[i]
	}
	for _, inst := range running.Instances {
		next := want[inst.ID]
		if next == nil {
			continue
		}
		delete(want, inst.ID)
		have, attrs := inst.Attrs(), make(map[string]string)
		var refs string
		for _, prop := range next.ConfigProperties {
			v := prop.Value.Value.String
			if old, ok := have[prop.Name]; !ok || old != v {
				attrs[prop.Name] = v
			}
			if prop.Name == live.AttrTaskRefs {
				refs = v
			}
		}
		// A Workload always travels with its TaskRefs: the AC and the TEs
		// bind the workload's tasks to refs through the table, and a
		// failover that withdraws nothing changes the one but not the other.
		if _, ok := attrs[live.AttrWorkload]; ok {
			attrs[live.AttrTaskRefs] = refs
		}
		// The AC and every TE get an update in every delta: they enter the
		// transaction's epoch (the TE dropping decisions cached under the
		// old one) even when none of their attributes changes.
		switch inst.Implementation {
		case live.ImplAdmissionController:
			d.ManagerNode = inst.Node
		case live.ImplTaskEffector:
		default:
			if len(attrs) == 0 {
				continue
			}
		}
		d.Updates = append(d.Updates, deploy.InstanceUpdate{ID: inst.ID, Node: inst.Node, Attrs: attrs})
	}
	for _, inst := range target.Instances {
		if want[inst.ID] != nil {
			d.Installs = append(d.Installs, inst)
		}
	}
	wired := make(map[deploy.Connection]bool, len(running.Connections))
	for _, c := range running.Connections {
		wired[c] = true
	}
	for _, c := range target.Connections {
		if !wired[c] && !slices.Contains(skip, c.SourceNode) && !slices.Contains(skip, c.SinkNode) {
			d.Connections = append(d.Connections, c)
		}
	}
	return d
}

// planState is the running deployment read back from its plan: the plan,
// the active strategy combination, the parsed workload with its
// scheduling-model tasks, and the task refs table (live.ParseTaskRefs).
type planState struct {
	plan     *deploy.Plan
	config   core.Config
	workload *spec.Workload
	tasks    []*sched.Task
	names    []string
}

// readPlanState reads the running configuration and task set from the plan's
// admission controller instance.
func readPlanState(p *deploy.Plan) (*planState, error) {
	i := slices.IndexFunc(p.Instances, func(inst deploy.Instance) bool {
		return inst.Implementation == live.ImplAdmissionController
	})
	if i < 0 {
		return nil, fmt.Errorf("configengine: plan %q has no admission controller instance", p.Name)
	}
	acAttrs := p.Instances[i].Attrs()
	st := &planState{plan: p}
	var err error
	if st.config.AC, err = planStrategy(acAttrs, live.AttrACStrategy); err != nil {
		return nil, err
	}
	if st.config.IR, err = planStrategy(acAttrs, live.AttrIRStrategy); err != nil {
		return nil, err
	}
	if st.config.LB, err = planStrategy(acAttrs, live.AttrLBStrategy); err != nil {
		return nil, err
	}
	wlJSON, ok := acAttrs[live.AttrWorkload]
	if !ok {
		return nil, fmt.Errorf("configengine: plan %q: admission controller has no workload attribute", p.Name)
	}
	if st.workload, err = spec.Parse([]byte(wlJSON)); err != nil {
		return nil, err
	}
	if st.tasks, err = st.workload.SchedTasks(); err != nil {
		return nil, err
	}
	if st.names, err = live.ParseTaskRefs(acAttrs[live.AttrTaskRefs]); err != nil {
		return nil, fmt.Errorf("configengine: plan %q: %w", p.Name, err)
	}
	return st, nil
}

// retarget returns the delta that moves the running deployment to the plan
// rendered over its nodes for the given task set (the running workload's
// when nil), refs table names and strategy combination, skipping the named
// nodes.
func (st *planState) retarget(tasks []*sched.Task, names []string, cfg core.Config, skip ...string) (*deploy.Delta, error) {
	w := st.workload
	if tasks != nil {
		w = spec.FromTasks(w.Name, w.Processors, tasks)
	}
	target, err := planFor(st.plan.Name, w, names, cfg, st.plan.Nodes)
	if err != nil {
		return nil, err
	}
	d := deltaTo(st.plan, target, skip...)
	d.FromConfig, d.ToConfig = st.config.String(), cfg.String()
	return d, nil
}

// ReconfigDelta computes the minimal reconfiguration transaction that moves
// a running deployment — described by the plan it was launched from — to the
// target strategy combination: the running plan diffed against the plan
// rendered for the same task set under the target (deltaTo), which updates
// the strategy-bearing instances and wires the federation routes the new
// configuration needs. The target is validated through the same
// feasibility rules as a fresh configuration, so a contradictory
// combination is rejected before anything touches the running system. The
// current combination is read back from the plan's admission controller
// instance.
func ReconfigDelta(p *deploy.Plan, to core.Config) (*deploy.Delta, error) {
	if err := to.Validate(); err != nil {
		return nil, err
	}
	st, err := readPlanState(p)
	if err != nil {
		return nil, err
	}
	return st.retarget(nil, st.names, to)
}

// AddTasksDelta computes the reconfiguration transaction that registers new
// tasks on a running deployment: the target is the union task set (EDMS
// priorities re-assigned over it), the added tasks taking the next refs —
// so a removed task added again under its old ID gets a ref it never held.
// The added tasks' subtask instances install onto the running nodes, the
// admission controller and every task effector adopt the union workload,
// surviving instances whose priority changed are updated in place, and the
// routes the enlarged task set needs are wired. The launcher executes it
// under the same quiesce protocol as a strategy swap, so no in-flight
// decision ever observes a half-updated task set.
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
	names := st.names
	for _, t := range add {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if existing[t.ID] {
			return nil, fmt.Errorf("configengine: add tasks: %w: %q", core.ErrTaskExists, t.ID)
		}
		existing[t.ID] = true
		names = append(names, t.ID)
	}
	return st.retarget(append(st.tasks, add...), names, st.config)
}

// RemoveTasksDelta computes the reconfiguration transaction that withdraws
// tasks from a running deployment: the target is the survivors (EDMS
// priorities re-assigned over them) with the departed tasks' refs retired.
// The admission controller — which releases the departed tasks'
// remaining ledger contributions — and every task effector adopt the
// shrunken workload; the departed tasks' subtask instances stay installed
// so their in-flight jobs drain (deltaTo).
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
	return st.retarget(remaining, retire(st.names, ids), st.config)
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
// processor from a running deployment. Its target is the surviving task
// set: every task stage homed on the dead processor is re-homed onto its
// lowest-numbered surviving replica, the dead processor disappears from
// every replica list, and tasks with an unreplicated stage on the dead
// processor are withdrawn, their refs retired (their admission state is
// released; in-flight jobs of such tasks are lost with the node — that is
// what replication is for). The dead node is listed in SkipNodes so the
// executor never RPCs it while Apply still folds the full update set into
// the plan (a later node recovery reinstalls from that plan state).
//
// The delta deliberately does not shrink the processor count: the dead
// processor keeps its slot in the ledger (its residual contributions age out
// by deadline expiry) and a recovered node can reclaim it.
func FailoverDelta(p *deploy.Plan, deadProc int) (*deploy.Delta, *FailoverOutcome, error) {
	st, err := readPlanState(p)
	if err != nil {
		return nil, nil, err
	}
	n := slices.IndexFunc(p.Nodes, func(n deploy.Node) bool { return n.Processor == deadProc })
	if deadProc < 0 || n < 0 {
		return nil, nil, fmt.Errorf("configengine: failover: no node hosts processor %d", deadProc)
	}

	out := &FailoverOutcome{Rehomed: make(map[string]map[int]int)}
	var next []*sched.Task
	for _, t := range st.tasks {
		lost := false
		for s := range t.Subtasks {
			sub := &t.Subtasks[s]
			sub.Replicas = slices.DeleteFunc(sub.Replicas, func(r int) bool { return r == deadProc })
			if sub.Processor != deadProc {
				continue
			}
			if len(sub.Replicas) == 0 {
				lost = true
				break
			}
			// Lowest-numbered surviving replica becomes the home:
			// deterministic, and its subtask instance is already installed
			// (duplicates deploy with the plan).
			home := slices.Min(sub.Replicas)
			sub.Processor = home
			sub.Replicas = slices.DeleteFunc(sub.Replicas, func(r int) bool { return r == home })
			if out.Rehomed[t.ID] == nil {
				out.Rehomed[t.ID] = make(map[int]int)
			}
			out.Rehomed[t.ID][s] = home
		}
		if lost {
			out.Withdrawn = append(out.Withdrawn, t.ID)
			continue
		}
		next = append(next, t)
	}
	if len(next) == 0 {
		return nil, nil, fmt.Errorf("configengine: failover: no task survives the loss of processor %d", deadProc)
	}
	d, err := st.retarget(next, retire(st.names, out.Withdrawn), st.config, p.Nodes[n].Name)
	if err != nil {
		return nil, nil, err
	}
	return d, out, nil
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
