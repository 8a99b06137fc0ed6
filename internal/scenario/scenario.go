// Package scenario is the declarative scenario engine: workload scenarios —
// arrival shapes, mid-run injections and expected-invariant blocks — are
// specified as JSON files and executed against either middleware binding
// (the deterministic simulation or the live loopback cluster) from the same
// spec, replacing the bespoke Go harness each experiment used to need: the
// churn, reconfig and failover experiments are specs built in Go.
//
// A spec composes four layers:
//
//   - a workload (one of the paper's random task sets, or inline tasks);
//   - arrival shapes per task group (flash crowd, diurnal tide, MMPP
//     bursts, correlated multi-task spikes, steady Poisson, or the task's
//     natural process), compiled to one deterministic arrival timeline;
//   - mid-run injections (AddTasks/RemoveTasks churn, Reconfigure swaps,
//     submit storms) at exact scenario times;
//   - an invariant block the run must satisfy (zero admitted-job loss,
//     deadline-miss-rate ceilings, a clean ledger audit, watch-stream
//     ordering), evaluated after the drain.
//
// Because the compiled timeline is deterministic given the spec's seed, a
// simulation run of a scenario is bit-reproducible, and any run — sim or
// live — can be recorded to a journal (the input timeline plus the observed
// watch stream) and replayed into the simulation offline; see journal.go.
//
//rtmw:deterministic file
package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"time"

	"repro/internal/autopilot"
	"repro/internal/core"
	"repro/internal/sched"
	wspec "repro/internal/spec"
	"repro/internal/workload"
)

// Typed spec-rejection errors, discriminated with errors.Is. Every
// validation failure wraps ErrSpec; the specific sentinels mark the failure
// classes tools branch on.
var (
	// ErrSpec marks any invalid scenario specification.
	ErrSpec = errors.New("invalid scenario spec")
	// ErrUnknownShape marks an arrival block whose shape kind is not one of
	// the workload package's generators.
	ErrUnknownShape = fmt.Errorf("%w: unknown arrival shape", ErrSpec)
	// ErrUnknownInjection marks an injection whose kind is not add_tasks,
	// remove_tasks, reconfigure, submit_storm, kill_node or recover_node.
	ErrUnknownInjection = fmt.Errorf("%w: unknown injection kind", ErrSpec)
	// ErrMissingInvariants marks a spec with no invariant block (or an empty
	// one): a scenario that asserts nothing is a workload generator, not a
	// test, so the engine refuses it.
	ErrMissingInvariants = fmt.Errorf("%w: missing invariant block", ErrSpec)
)

// Injection kinds.
const (
	InjectAddTasks    = "add_tasks"
	InjectRemoveTasks = "remove_tasks"
	InjectReconfigure = "reconfigure"
	InjectSubmitStorm = "submit_storm"
	InjectKillNode    = "kill_node"
	InjectRecoverNode = "recover_node"
)

// Spec is one declarative scenario. Durations use the workload
// specification's human-readable encoding ("250ms", "30s").
type Spec struct {
	// Name labels the scenario in results and journals.
	Name string `json:"name"`
	// Description documents intent; the engine ignores it.
	Description string `json:"description,omitempty"`
	// Config is the starting AC_IR_LB strategy combination (e.g. "T_T_T").
	Config string `json:"config"`
	// Horizon is the scenario length in scenario (virtual) time; arrivals
	// and injections all land within it, and the run drains afterwards.
	Horizon wspec.Duration `json:"horizon"`
	// Seed makes timeline generation deterministic.
	Seed int64 `json:"seed"`
	// Workload selects the task set.
	Workload WorkloadRef `json:"workload"`
	// Arrivals maps task groups to arrival shapes. Tasks no block claims
	// follow their natural arrival process.
	Arrivals []ArrivalBlock `json:"arrivals,omitempty"`
	// Injections are the mid-run operations.
	Injections []Injection `json:"injections,omitempty"`
	// Invariants is the expected-invariant block; required.
	Invariants *Invariants `json:"invariants"`
	// Autopilot enables the closed-loop controller for the run.
	Autopilot *AutopilotSpec `json:"autopilot,omitempty"`
	// Live tunes the live-binding execution.
	Live LiveSettings `json:"live,omitempty"`
}

// WorkloadRef selects the scenario's task set: exactly one field must be
// set.
type WorkloadRef struct {
	// Figure5 and Figure6 pick one of the paper's random task sets by set
	// index (Sections 7.1 and 7.2).
	Figure5 *int `json:"figure5,omitempty"`
	Figure6 *int `json:"figure6,omitempty"`
	// Inline embeds an explicit workload specification.
	Inline *wspec.Workload `json:"inline,omitempty"`
}

// ArrivalBlock assigns one arrival shape to a group of tasks.
type ArrivalBlock struct {
	// Tasks names the group. Empty means "every task not named by another
	// block" (at most one such default block is allowed). Names may also
	// reference tasks an add_tasks injection introduces; their arrivals
	// before the join are filtered out (and counted) at execution.
	Tasks []string `json:"tasks,omitempty"`
	// Shape is the arrival-shape parameterization.
	Shape ShapeSpec `json:"shape"`
}

// ShapeSpec is the JSON form of workload.Shape; rates are arrivals per
// second of scenario time.
type ShapeSpec struct {
	Kind       string         `json:"kind"`
	Rate       float64        `json:"rate,omitempty"`
	Peak       float64        `json:"peak,omitempty"`
	At         wspec.Duration `json:"at,omitempty"`
	Ramp       wspec.Duration `json:"ramp,omitempty"`
	Hold       wspec.Duration `json:"hold,omitempty"`
	Period     wspec.Duration `json:"period,omitempty"`
	DwellBase  wspec.Duration `json:"dwellBase,omitempty"`
	DwellBurst wspec.Duration `json:"dwellBurst,omitempty"`
	Every      wspec.Duration `json:"every,omitempty"`
	Burst      int            `json:"burst,omitempty"`
}

// shape converts to the workload package's generator parameterization.
func (s ShapeSpec) shape() workload.Shape {
	return workload.Shape{
		Kind:       workload.ShapeKind(s.Kind),
		Rate:       s.Rate,
		Peak:       s.Peak,
		At:         time.Duration(s.At),
		Ramp:       time.Duration(s.Ramp),
		Hold:       time.Duration(s.Hold),
		Period:     time.Duration(s.Period),
		DwellBase:  time.Duration(s.DwellBase),
		DwellBurst: time.Duration(s.DwellBurst),
		Every:      time.Duration(s.Every),
		Burst:      s.Burst,
	}
}

// Injection is one mid-run operation at an exact scenario time.
type Injection struct {
	// At is the scenario time of the operation (within the horizon).
	At wspec.Duration `json:"at"`
	// Kind is add_tasks, remove_tasks, reconfigure, submit_storm, kill_node
	// or recover_node.
	Kind string `json:"kind"`
	// Tasks are the joining tasks (add_tasks).
	Tasks []wspec.TaskSpec `json:"tasks,omitempty"`
	// IDs name the departing tasks (remove_tasks) or the storm's targets
	// (submit_storm).
	IDs []string `json:"ids,omitempty"`
	// To is the target combination (reconfigure).
	To string `json:"to,omitempty"`
	// Count is the storm's arrivals per named task (default 1).
	Count int `json:"count,omitempty"`
	// Node is the target processor (kill_node, recover_node). On the live
	// binding a kill abruptly terminates the processor's node and runs the
	// zero-loss failover synchronously; a recover replaces it with a fresh
	// node. The simulation binding has no node model and records both as
	// timeline no-ops.
	Node *int `json:"node,omitempty"`
}

// AutopilotSpec enables and tunes the closed-loop controller
// (internal/autopilot) for a scenario run. Durations and rates are in
// scenario time; the live runner scales them by the spec's timeScale. Unset
// fields take the controller's defaults.
type AutopilotSpec struct {
	// Enabled turns the controller on.
	Enabled bool `json:"enabled"`
	// At is when the controller attaches (sim binding; the live runner
	// starts the controller with the run). Default 0.
	At wspec.Duration `json:"at,omitempty"`
	// Tick is the decision cadence; Window the estimator window.
	Tick   wspec.Duration `json:"tick,omitempty"`
	Window wspec.Duration `json:"window,omitempty"`
	// Dwell and Cooldown are the no-flap hysteresis: minimum regime
	// stability before acting, and the minimum gap between actuations.
	Dwell    wspec.Duration `json:"dwell,omitempty"`
	Cooldown wspec.Duration `json:"cooldown,omitempty"`
	// MaxActuations hard-caps total actuations (0 = unbounded).
	MaxActuations int64 `json:"maxActuations,omitempty"`
	// Calm, Burst and Overload are the policy table's target configs
	// (AC_IR_LB tuples).
	Calm     string `json:"calm,omitempty"`
	Burst    string `json:"burst,omitempty"`
	Overload string `json:"overload,omitempty"`
	// RateHigh/RateLow are absolute aggregate arrival-rate thresholds
	// (arrivals/sec of scenario time); BurstEnter/BurstExit the per-task
	// MMPP fit multipliers; MissHigh/RejectHigh the overload ceilings.
	RateHigh   float64 `json:"rateHigh,omitempty"`
	RateLow    float64 `json:"rateLow,omitempty"`
	BurstEnter float64 `json:"burstEnter,omitempty"`
	BurstExit  float64 `json:"burstExit,omitempty"`
	MissHigh   float64 `json:"missHigh,omitempty"`
	RejectHigh float64 `json:"rejectHigh,omitempty"`
	// OverloadShed names tasks the controller removes (once) when it first
	// actuates in the overload regime; their later arrivals are filtered as a
	// remove_tasks injection's would be.
	OverloadShed []string `json:"overloadShed,omitempty"`
}

// options converts the spec block to controller options (scenario timebase).
func (a *AutopilotSpec) options() (autopilot.Options, error) {
	o := autopilot.Options{
		Tick:          time.Duration(a.Tick),
		Window:        time.Duration(a.Window),
		MinDwell:      time.Duration(a.Dwell),
		Cooldown:      time.Duration(a.Cooldown),
		MaxActuations: a.MaxActuations,
		RateHigh:      a.RateHigh,
		RateLow:       a.RateLow,
		BurstEnter:    a.BurstEnter,
		BurstExit:     a.BurstExit,
		MissHigh:      a.MissHigh,
		RejectHigh:    a.RejectHigh,
		OverloadShed:  a.OverloadShed,
	}
	var err error
	parse := func(dst *core.Config, s, axis string) {
		if err != nil || s == "" {
			return
		}
		if *dst, err = core.ParseConfig(s); err != nil {
			err = fmt.Errorf("autopilot %s config: %w", axis, err)
		}
	}
	parse(&o.Calm, a.Calm, "calm")
	parse(&o.Burst, a.Burst, "burst")
	parse(&o.Overload, a.Overload, "overload")
	return o, err
}

// validate checks the block against the scenario horizon by building a
// throwaway controller, so every controller-side constraint (hysteresis
// bands, config validity) is enforced at parse time.
func (a *AutopilotSpec) validate(horizon wspec.Duration) error {
	if !a.Enabled {
		return nil
	}
	if a.At < 0 || a.At > horizon {
		return fmt.Errorf("%w: autopilot.at %v outside [0, %v]", ErrSpec, time.Duration(a.At), time.Duration(horizon))
	}
	for _, d := range []wspec.Duration{a.Tick, a.Window, a.Dwell, a.Cooldown} {
		if d < 0 {
			return fmt.Errorf("%w: autopilot durations must be non-negative", ErrSpec)
		}
	}
	if a.MaxActuations < 0 {
		return fmt.Errorf("%w: autopilot.maxActuations must be non-negative", ErrSpec)
	}
	opts, err := a.options()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if _, err := autopilot.New(opts); err != nil {
		return fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return nil
}

// Invariants is the expected-invariant block: only the set fields are
// enforced, and at least one must be.
type Invariants struct {
	// ZeroAdmittedLoss asserts every released job completed after the drain
	// (the open-world protocol's headline guarantee).
	ZeroAdmittedLoss bool `json:"zeroAdmittedLoss,omitempty"`
	// LedgerAudit asserts the admission ledger's index invariants hold after
	// the run.
	LedgerAudit bool `json:"ledgerAudit,omitempty"`
	// WatchOrdering asserts the scenario's watch stream delivered strictly
	// increasing sequence numbers.
	WatchOrdering bool `json:"watchOrdering,omitempty"`
	// MaxMissRate caps the deadline-miss rate over completed jobs.
	MaxMissRate *float64 `json:"maxMissRate,omitempty"`
	// MinArrived floors the arrival count, guarding against a scenario that
	// silently exercised nothing.
	MinArrived int64 `json:"minArrived,omitempty"`
	// MaxWatchDropped caps the events the scenario's watch stream shed.
	MaxWatchDropped *int64 `json:"maxWatchDropped,omitempty"`
	// MaxActuations caps the autopilot's actuation count — the bounded-
	// actuation half of the no-flap guarantee, asserted per run.
	MaxActuations *int64 `json:"maxActuations,omitempty"`
	// Live overrides ceilings for the live binding, whose wall-clock jitter
	// makes the simulation's deterministic bounds too tight.
	Live *InvariantOverrides `json:"live,omitempty"`
}

// InvariantOverrides relaxes per-binding ceilings.
type InvariantOverrides struct {
	MaxMissRate   *float64 `json:"maxMissRate,omitempty"`
	MinArrived    *int64   `json:"minArrived,omitempty"`
	MaxActuations *int64   `json:"maxActuations,omitempty"`
}

// empty reports whether no invariant is set.
func (inv *Invariants) empty() bool {
	return !inv.ZeroAdmittedLoss && !inv.LedgerAudit && !inv.WatchOrdering &&
		inv.MaxMissRate == nil && inv.MinArrived == 0 && inv.MaxWatchDropped == nil &&
		inv.MaxActuations == nil
}

// LiveSettings tunes live-binding execution.
type LiveSettings struct {
	// TimeScale is the wall-clock compression factor: every workload
	// duration shrinks by it and the timeline plays back that much faster,
	// so a 30s scenario at TimeScale 10 takes ~3s of wall clock. Synthetic
	// utilizations are invariant under the scaling. Default 10.
	TimeScale float64 `json:"timeScale,omitempty"`
}

// DefaultTimeScale is the live compression when the spec sets none.
const DefaultTimeScale = 10

// Parse decodes and validates a scenario specification.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := jsonUnmarshalStrict(data, &s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	emptyListsAsNil(reflect.ValueOf(&s))
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec end to end: the workload resolves, the
// configuration and every injection target parse, every arrival shape is a
// known generator with sane parameters, every task reference names a task
// that exists at some point of the scenario, and the invariant block is
// present and non-empty.
func (s *Spec) Validate() error {
	_, err := s.check()
	return err
}

// check is Validate, handing back the layout it checked references against
// so that compile does not resolve the workload a second time.
func (s *Spec) check() (*compiled, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("%w: missing name", ErrSpec)
	}
	if s.Horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon must be positive, got %v", ErrSpec, time.Duration(s.Horizon))
	}
	if _, err := core.ParseConfig(s.Config); err != nil {
		return nil, fmt.Errorf("%w: config: %v", ErrSpec, err)
	}
	l, err := s.layout()
	if err != nil {
		return nil, err
	}
	if s.Live.TimeScale < 0 {
		return nil, fmt.Errorf("%w: live.timeScale must be non-negative", ErrSpec)
	}
	for i, b := range s.Arrivals {
		sh := b.Shape.shape()
		switch sh.Kind {
		case workload.ShapeConstant, workload.ShapeFlashCrowd, workload.ShapeDiurnal,
			workload.ShapeMMPP, workload.ShapeSpike, workload.ShapeNatural:
			if err := sh.Validate(); err != nil {
				return nil, fmt.Errorf("%w: arrivals[%d]: %v", ErrSpec, i, err)
			}
		default:
			return nil, fmt.Errorf("%w: arrivals[%d]: %q", ErrUnknownShape, i, b.Shape.Kind)
		}
	}

	for i, inj := range s.Injections {
		if inj.At < 0 || inj.At > s.Horizon {
			return nil, fmt.Errorf("%w: injection %d at %v outside [0, %v]", ErrSpec, i, time.Duration(inj.At), time.Duration(s.Horizon))
		}
		switch inj.Kind {
		case InjectAddTasks:
			// Validated by layout.
		case InjectRemoveTasks, InjectSubmitStorm:
			if len(inj.IDs) == 0 {
				return nil, fmt.Errorf("%w: injection %d (%s) names no ids", ErrSpec, i, inj.Kind)
			}
			for _, id := range inj.IDs {
				if _, ok := l.index[id]; !ok {
					return nil, fmt.Errorf("%w: injection %d (%s) references unknown task %q", ErrSpec, i, inj.Kind, id)
				}
			}
			if inj.Count < 0 {
				return nil, fmt.Errorf("%w: injection %d: negative count", ErrSpec, i)
			}
		case InjectReconfigure:
			to, err := core.ParseConfig(inj.To)
			if err != nil {
				return nil, fmt.Errorf("%w: injection %d: to: %v", ErrSpec, i, err)
			}
			if err := to.Validate(); err != nil {
				return nil, fmt.Errorf("%w: injection %d: %v", ErrSpec, i, err)
			}
		case InjectKillNode, InjectRecoverNode:
			if inj.Node == nil {
				return nil, fmt.Errorf("%w: injection %d (%s) sets no node", ErrSpec, i, inj.Kind)
			}
			if n := *inj.Node; n < 0 || n >= l.procs {
				return nil, fmt.Errorf("%w: injection %d (%s) node %d outside [0, %d)", ErrSpec, i, inj.Kind, n, l.procs)
			}
		default:
			return nil, fmt.Errorf("%w: injection %d: %q", ErrUnknownInjection, i, inj.Kind)
		}
	}
	if err := s.validateNodeFaults(); err != nil {
		return nil, err
	}

	if s.Invariants == nil || s.Invariants.empty() {
		return nil, fmt.Errorf("%w (scenario %q)", ErrMissingInvariants, s.Name)
	}
	if s.Invariants.MaxMissRate != nil && (*s.Invariants.MaxMissRate < 0 || *s.Invariants.MaxMissRate > 1) {
		return nil, fmt.Errorf("%w: maxMissRate %g outside [0, 1]", ErrSpec, *s.Invariants.MaxMissRate)
	}
	if s.Invariants.MaxActuations != nil && *s.Invariants.MaxActuations < 0 {
		return nil, fmt.Errorf("%w: maxActuations must be non-negative", ErrSpec)
	}
	if s.Autopilot != nil {
		if err := s.Autopilot.validate(s.Horizon); err != nil {
			return nil, err
		}
		for _, id := range s.Autopilot.OverloadShed {
			if _, ok := l.index[id]; !ok {
				return nil, fmt.Errorf("%w: autopilot.overloadShed references unknown task %q", ErrSpec, id)
			}
		}
	}
	return l, nil
}

// compiled is a spec lowered to an executable form. layout fills everything
// but the ops: what check tests references against and compile generates
// arrivals over.
type compiled struct {
	tasks []*sched.Task // initial workload
	procs int
	// all is every task the scenario ever has, in deterministic order — the
	// initial ones, then each add_tasks injection's in injection order — and
	// index a task ID's position in it.
	all   []*sched.Task
	index map[string]int
	// block maps a task ID to the arrival block naming it; every other task
	// takes defaultBlock, the block naming no tasks (-1: none, so the task's
	// natural process).
	block        map[string]int
	defaultBlock int
	ops          []Op
}

func (s *Spec) layout() (*compiled, error) {
	tasks, procs, err := s.Workload.resolve()
	if err != nil {
		return nil, err
	}
	l := &compiled{tasks: tasks, procs: procs, all: tasks[:len(tasks):len(tasks)], defaultBlock: -1}
	for i, inj := range s.Injections {
		if inj.Kind != InjectAddTasks {
			continue
		}
		added, err := injectionTasks(inj.Tasks, procs)
		if err != nil {
			return nil, fmt.Errorf("%w: injection %d: %v", ErrSpec, i, err)
		}
		l.all = append(l.all, added...)
	}
	l.index = make(map[string]int, len(l.all))
	for i, t := range l.all {
		if _, dup := l.index[t.ID]; dup {
			return nil, fmt.Errorf("%w: an add_tasks injection re-adds task %q", ErrSpec, t.ID)
		}
		l.index[t.ID] = i
	}
	l.block = make(map[string]int, len(l.all))
	for i, b := range s.Arrivals {
		if len(b.Tasks) == 0 {
			if l.defaultBlock >= 0 {
				return nil, fmt.Errorf("%w: more than one default (all-tasks) arrival block", ErrSpec)
			}
			l.defaultBlock = i
		}
		for _, id := range b.Tasks {
			if _, ok := l.index[id]; !ok {
				return nil, fmt.Errorf("%w: arrivals[%d] references unknown task %q", ErrSpec, i, id)
			}
			if prev, dup := l.block[id]; dup {
				return nil, fmt.Errorf("%w: task %q claimed by arrival blocks %d and %d", ErrSpec, id, prev, i)
			}
			l.block[id] = i
		}
	}
	return l, nil
}

// validateNodeFaults checks that each node's kill/recover injections
// alternate — a kill first, then at most one recover per kill — in the same
// order the compiler plays them (by time, spec order breaking ties), so a
// spec that would double-kill a node or recover a live one fails at parse
// time rather than mid-run.
func (s *Spec) validateNodeFaults() error {
	var faults []int // injection indexes
	for i, inj := range s.Injections {
		if inj.Kind == InjectKillNode || inj.Kind == InjectRecoverNode {
			faults = append(faults, i)
		}
	}
	sort.SliceStable(faults, func(i, j int) bool { return s.Injections[faults[i]].At < s.Injections[faults[j]].At })
	dead := make(map[int]bool)
	for _, i := range faults {
		kill, node := s.Injections[i].Kind == InjectKillNode, *s.Injections[i].Node
		switch {
		case kill && dead[node]:
			return fmt.Errorf("%w: injection %d kills node %d twice without a recover", ErrSpec, i, node)
		case !kill && !dead[node]:
			return fmt.Errorf("%w: injection %d recovers node %d before any kill", ErrSpec, i, node)
		}
		dead[node] = kill
	}
	return nil
}

// resolve materializes the referenced task set and its processor count.
func (w WorkloadRef) resolve() ([]*sched.Task, int, error) {
	var params func(set int) workload.Params
	var set *int
	switch {
	case w.Figure5 != nil && w.Figure6 == nil && w.Inline == nil:
		params, set = workload.Figure5Params, w.Figure5
	case w.Figure6 != nil && w.Figure5 == nil && w.Inline == nil:
		params, set = workload.Figure6Params, w.Figure6
	case w.Inline != nil && w.Figure5 == nil && w.Figure6 == nil:
		tasks, err := w.Inline.SchedTasks()
		if err != nil {
			return nil, 0, fmt.Errorf("%w: inline workload: %v", ErrSpec, err)
		}
		return tasks, w.Inline.Processors, nil
	default:
		return nil, 0, fmt.Errorf("%w: workload must set exactly one of figure5, figure6, inline", ErrSpec)
	}
	tasks, err := workload.Generate(params(*set))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: workload figure set %d: %v", ErrSpec, *set, err)
	}
	return tasks, workload.MaxProc(tasks) + 1, nil
}

// injectionTasks converts an add_tasks injection's task specs to validated
// scheduling-model tasks, bounded by the scenario's processor count.
func injectionTasks(specs []wspec.TaskSpec, procs int) ([]*sched.Task, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("add_tasks injection has no tasks")
	}
	w := &wspec.Workload{Name: "injection", Processors: procs, Tasks: specs}
	return w.SchedTasks()
}

// timeScale resolves the live compression factor: the override when
// positive, else the spec's setting, else the default.
func (s *Spec) timeScale(override float64) float64 {
	if override > 0 {
		return override
	}
	if s.Live.TimeScale > 0 {
		return s.Live.TimeScale
	}
	return DefaultTimeScale
}
