package configengine

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/live"
	"repro/internal/sched"
	"repro/internal/spec"
)

func TestMapAnswersTable(t *testing.T) {
	tests := []struct {
		name string
		a    Answers
		want string
	}{
		// The paper's Figure 4 example: answers (N, Y, Y, PT) → all three
		// services per task.
		{
			name: "figure 4 example",
			a:    Answers{JobSkipping: false, Replication: true, StatePersistence: true, Overhead: TolerancePerTask},
			want: "T_T_T",
		},
		{
			name: "most aggressive",
			a:    Answers{JobSkipping: true, Replication: true, StatePersistence: false, Overhead: TolerancePerJob},
			want: "J_J_J",
		},
		{
			name: "no overhead at all",
			a:    Answers{JobSkipping: false, Replication: false, StatePersistence: false, Overhead: ToleranceNone},
			want: "T_N_N",
		},
		{
			name: "job skipping without per-job budget stays per task",
			a:    Answers{JobSkipping: true, Replication: true, StatePersistence: true, Overhead: TolerancePerTask},
			want: "T_T_T",
		},
		{
			name: "per-job IR capped under per-task AC",
			a:    Answers{JobSkipping: false, Replication: true, StatePersistence: false, Overhead: TolerancePerJob},
			want: "T_T_J",
		},
		{
			name: "no replication disables LB",
			a:    Answers{JobSkipping: true, Replication: false, StatePersistence: false, Overhead: TolerancePerJob},
			want: "J_J_N",
		},
		{
			name: "state persistence pins LB per task",
			a:    Answers{JobSkipping: true, Replication: true, StatePersistence: true, Overhead: TolerancePerJob},
			want: "J_J_T",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := MapAnswers(tt.a)
			if r.Config.String() != tt.want {
				t.Errorf("MapAnswers(%+v) = %s, want %s\nnotes: %v", tt.a, r.Config, tt.want, r.Notes)
			}
			if err := r.Config.Validate(); err != nil {
				t.Errorf("mapping produced invalid config: %v", err)
			}
			if len(r.Notes) != 3 {
				t.Errorf("want one note per service axis, got %v", r.Notes)
			}
		})
	}
}

func TestMapAnswersDefaults(t *testing.T) {
	// "If application characteristics are not provided by the developers,
	// our configuration engine can supply default configuration settings,
	// i.e., per task admission control, idle resetting and load balancing."
	r := MapAnswers(DefaultAnswers())
	if r.Config.String() != "T_T_T" {
		t.Errorf("defaults = %s, want T_T_T", r.Config)
	}
	// Zero-valued tolerance is treated as the per-task default.
	r = MapAnswers(Answers{Replication: true, StatePersistence: true})
	if r.Config.String() != "T_T_T" {
		t.Errorf("zero tolerance = %s, want T_T_T", r.Config)
	}
}

func TestMapAnswersAlwaysValid(t *testing.T) {
	// Exhaustive: every answer combination maps to one of the 15 valid
	// combinations.
	bools := []bool{false, true}
	tols := []Tolerance{ToleranceNone, TolerancePerTask, TolerancePerJob}
	for _, js := range bools {
		for _, rep := range bools {
			for _, sp := range bools {
				for _, tol := range tols {
					r := MapAnswers(Answers{JobSkipping: js, Replication: rep, StatePersistence: sp, Overhead: tol})
					if err := r.Config.Validate(); err != nil {
						t.Errorf("answers (%v,%v,%v,%v) mapped to invalid %s: %v", js, rep, sp, tol, r.Config, err)
					}
				}
			}
		}
	}
}

func TestValidateConfigRejectsContradiction(t *testing.T) {
	bad := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerJob, LB: core.StrategyNone}
	if err := ValidateConfig(bad); err == nil {
		t.Error("ValidateConfig accepted AC-per-task/IR-per-job")
	}
}

func TestParseTolerance(t *testing.T) {
	for in, want := range map[string]Tolerance{
		"N": ToleranceNone, "none": ToleranceNone,
		"PT": TolerancePerTask, "pt": TolerancePerTask,
		"PJ": TolerancePerJob, "per-job": TolerancePerJob,
	} {
		got, err := ParseTolerance(in)
		if err != nil || got != want {
			t.Errorf("ParseTolerance(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseTolerance("huge"); err == nil {
		t.Error("ParseTolerance accepted garbage")
	}
	if ToleranceNone.String() != "N" || TolerancePerTask.String() != "PT" || TolerancePerJob.String() != "PJ" {
		t.Error("tolerance abbreviations wrong")
	}
}

func TestRenderTable1(t *testing.T) {
	out := RenderTable1()
	for _, want := range []string{"C1: Job Skipping", "AC per Task", "AC per Job",
		"C2: State Persistency", "LB per Job", "C3: Component Replication", "No LB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

// testWorkload is a two-processor workload with a replicated two-stage task.
func testWorkload(t *testing.T) *spec.Workload {
	t.Helper()
	w, err := spec.Parse([]byte(`{
	  "name": "gen-test",
	  "processors": 2,
	  "tasks": [
	    {"id": "flow", "kind": "periodic", "period": "1s", "deadline": "1s",
	     "subtasks": [
	       {"exec": "50ms", "processor": 0, "replicas": [1]},
	       {"exec": "30ms", "processor": 1, "replicas": [0]}
	     ]},
	    {"id": "alert", "kind": "aperiodic", "deadline": "400ms",
	     "subtasks": [{"exec": "20ms", "processor": 1}]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func planNodes() (deploy.Node, []deploy.Node) {
	manager := deploy.Node{Name: "manager", Address: "127.0.0.1:9100", Processor: -1}
	apps := []deploy.Node{
		{Name: "app0", Address: "127.0.0.1:9101", Processor: 0},
		{Name: "app1", Address: "127.0.0.1:9102", Processor: 1},
	}
	return manager, apps
}

func TestGeneratePlan(t *testing.T) {
	w := testWorkload(t)
	manager, apps := planNodes()
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerTask, LB: core.StrategyPerTask}
	p, err := GeneratePlan("test-plan", w, cfg, manager, apps)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	byID := make(map[string]deploy.Instance)
	for _, inst := range p.Instances {
		byID[inst.ID] = inst
	}
	// Central services.
	ac, ok := byID["Central-AC"]
	if !ok || ac.Node != "manager" {
		t.Fatalf("Central-AC = %+v", ac)
	}
	attrs := ac.Attrs()
	if attrs["AC_Strategy"] != "J" || attrs["IR_Strategy"] != "T" || attrs["LB_Strategy"] != "T" {
		t.Errorf("AC attrs = %v", attrs)
	}
	if attrs["Processors"] != "2" {
		t.Errorf("Processors attr = %q", attrs["Processors"])
	}
	if _, ok := byID["Central-LB"]; !ok {
		t.Error("Central-LB missing")
	}
	// Effectors and resetters per node.
	for i := 0; i < 2; i++ {
		for _, id := range []string{"TE-", "IR-"} {
			if _, ok := byID[id+string(rune('0'+i))]; !ok {
				t.Errorf("%s%d missing", id, i)
			}
		}
	}
	// Subtask instances: flow stage 0 on procs {0,1}, stage 1 on {1,0};
	// alert stage 0 on proc 1 only. Total 5.
	subCount := 0
	for id := range byID {
		if strings.HasPrefix(id, "Sub-") {
			subCount++
		}
	}
	if subCount != 5 {
		t.Errorf("%d subtask instances, want 5", subCount)
	}
	// The last stage of flow is marked Last; EDMS priority of alert (400ms
	// deadline) is higher (smaller) than flow (1s).
	flowLast := byID["Sub-flow-1@P1"].Attrs()
	if flowLast["Last"] != "true" {
		t.Errorf("flow stage 1 Last = %q", flowLast["Last"])
	}
	alertPrio := byID["Sub-alert-0@P1"].Attrs()["Priority"]
	flowPrio := byID["Sub-flow-0@P0"].Attrs()["Priority"]
	if !(alertPrio < flowPrio) {
		t.Errorf("EDMS priorities: alert %s vs flow %s", alertPrio, flowPrio)
	}

	// Connections: arrivals from both home nodes, accepts back, triggers
	// between stage candidates, releases to stage-0 replicas, idle resets.
	haveConn := make(map[string]bool)
	for _, c := range p.Connections {
		haveConn[c.EventType+":"+c.SourceNode+">"+c.SinkNode] = true
	}
	for _, want := range []string{
		"TaskArrive:app0>manager", "TaskArrive:app1>manager",
		"Accept:manager>app0", "Accept:manager>app1",
		"Release:app0>app1", // flow stage-0 replica on processor 1
		"Trigger:app0>app1", // flow stage 0 home → stage 1 home
		"IdleReset:app0>manager", "IdleReset:app1>manager",
	} {
		if !haveConn[want] {
			t.Errorf("missing connection %s (have %v)", want, haveConn)
		}
	}
}

func TestGeneratePlanNoIRConnectionsWhenDisabled(t *testing.T) {
	w := testWorkload(t)
	manager, apps := planNodes()
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyNone}
	p, err := GeneratePlan("no-ir", w, cfg, manager, apps)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Connections {
		if c.EventType == "IdleReset" {
			t.Error("IdleReset route emitted although IR is disabled")
		}
	}
}

func TestGeneratePlanErrors(t *testing.T) {
	w := testWorkload(t)
	manager, apps := planNodes()
	bad := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerJob, LB: core.StrategyNone}
	if _, err := GeneratePlan("x", w, bad, manager, apps); err == nil {
		t.Error("GeneratePlan accepted invalid config")
	}
	good := core.Config{AC: core.StrategyPerTask, IR: core.StrategyNone, LB: core.StrategyNone}
	if _, err := GeneratePlan("x", w, good, manager, apps[:1]); err == nil {
		t.Error("GeneratePlan accepted missing app node")
	}
	swapped := []deploy.Node{apps[1], apps[0]}
	if _, err := GeneratePlan("x", w, good, manager, swapped); err == nil {
		t.Error("GeneratePlan accepted mis-ordered processors")
	}
}

// TestMapAnswersCrossProduct drives the engine over the full answer
// cross-product — every job-skipping × replication × persistence ×
// tolerance combination, including the unset zero tolerance the engine
// defaults — and pins that every result is one of the 15 valid
// combinations and the two contradictory AC-per-task/IR-per-job shapes are
// never emitted.
func TestMapAnswersCrossProduct(t *testing.T) {
	valid := make(map[core.Config]bool, 15)
	for _, c := range core.AllCombinations() {
		valid[c] = true
	}
	if len(valid) != 15 {
		t.Fatalf("AllCombinations returned %d combos", len(valid))
	}
	bools := []bool{false, true}
	tols := []Tolerance{0, ToleranceNone, TolerancePerTask, TolerancePerJob}
	seen := make(map[core.Config]bool)
	count := 0
	for _, js := range bools {
		for _, rep := range bools {
			for _, sp := range bools {
				for _, tol := range tols {
					count++
					a := Answers{JobSkipping: js, Replication: rep, StatePersistence: sp, Overhead: tol}
					r := MapAnswers(a)
					if err := r.Config.Validate(); err != nil {
						t.Errorf("answers %+v produced invalid config %s: %v", a, r.Config, err)
					}
					if !valid[r.Config] {
						t.Errorf("answers %+v produced %s, not among the 15 valid combos", a, r.Config)
					}
					if r.Config.AC == core.StrategyPerTask && r.Config.IR == core.StrategyPerJob {
						t.Errorf("answers %+v emitted the contradictory %s", a, r.Config)
					}
					if len(r.Notes) < 3 {
						t.Errorf("answers %+v produced %d notes, want one per axis", a, len(r.Notes))
					}
					seen[r.Config] = true
				}
			}
		}
	}
	if count != 32 {
		t.Fatalf("cross-product covered %d answer tuples, want 32", count)
	}
	// The zero tolerance aliases per-task, so the distinct reachable set is
	// what the 2×2×2×3 real cross-product maps to.
	if len(seen) < 5 {
		t.Errorf("mapping reached only %d distinct configs: %v", len(seen), seen)
	}
}

// TestReconfigDelta pins the delta computation: attribute updates for every
// strategy-bearing instance, epoch-reset updates for the effectors, and the
// IdleReset routes that turning resetting on requires.
func TestReconfigDelta(t *testing.T) {
	w := testWorkload(t)
	manager, apps := planNodes()
	from := core.Config{AC: core.StrategyPerTask, IR: core.StrategyNone, LB: core.StrategyNone}
	p, err := GeneratePlan("delta-test", w, from, manager, apps)
	if err != nil {
		t.Fatal(err)
	}
	to := core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}
	d, err := ReconfigDelta(p, to)
	if err != nil {
		t.Fatal(err)
	}
	if d.FromConfig != "T_N_N" || d.ToConfig != "J_J_J" {
		t.Errorf("delta configs = %s -> %s", d.FromConfig, d.ToConfig)
	}
	if d.ManagerNode != "manager" || d.ManagerKey != live.ReconfigServantKey || d.EpochAttr != live.AttrEpoch {
		t.Errorf("delta coordination fields = %+v", d)
	}

	updates := make(map[string]map[string]string, len(d.Updates))
	for _, up := range d.Updates {
		updates[up.ID] = up.Attrs
	}
	ac, ok := updates["Central-AC"]
	if !ok || ac[live.AttrACStrategy] != "J" || ac[live.AttrIRStrategy] != "J" || ac[live.AttrLBStrategy] != "J" {
		t.Errorf("Central-AC update = %v", ac)
	}
	if lb, ok := updates["Central-LB"]; !ok || lb[live.AttrLBStrategy] != "J" {
		t.Errorf("Central-LB update = %v", lb)
	}
	for _, id := range []string{"IR-0", "IR-1"} {
		if ir, ok := updates[id]; !ok || ir[live.AttrIRStrategy] != "J" {
			t.Errorf("%s update = %v", id, ir)
		}
	}
	for _, id := range []string{"TE-0", "TE-1"} {
		if te, ok := updates[id]; !ok || len(te) != 2 || te[live.AttrACStrategy] != "J" || te[live.AttrLBStrategy] != "J" {
			t.Errorf("%s update = %v (want the AC and LB strategies)", id, te)
		}
	}
	// The AC update must come first: policy swaps before the effectors'.
	if d.Updates[0].ID != "Central-AC" {
		t.Errorf("first update = %s, want Central-AC", d.Updates[0].ID)
	}

	// IR none → per-job adds the IdleReset routes the plan lacks.
	wantRoutes := map[deploy.Connection]bool{
		{EventType: live.EvIdleReset, SourceNode: "app0", SinkNode: "manager"}: true,
		{EventType: live.EvIdleReset, SourceNode: "app1", SinkNode: "manager"}: true,
	}
	for _, c := range d.Connections {
		if !wantRoutes[c] {
			t.Errorf("unexpected route %+v", c)
		}
		delete(wantRoutes, c)
	}
	for c := range wantRoutes {
		t.Errorf("missing route %+v", c)
	}

	// Applying the delta folds the new strategies into the plan, so a
	// subsequent delta reads the new current config.
	d.Apply(p)
	d2, err := ReconfigDelta(p, from)
	if err != nil {
		t.Fatal(err)
	}
	if d2.FromConfig != "J_J_J" {
		t.Errorf("plan after Apply reads %s, want J_J_J", d2.FromConfig)
	}
	if len(d2.Connections) != 0 {
		t.Errorf("reverse delta re-adds routes: %+v", d2.Connections)
	}
}

// TestReconfigDeltaRejectsInvalid pins target validation and the
// plan-shape errors.
func TestReconfigDeltaRejectsInvalid(t *testing.T) {
	w := testWorkload(t)
	manager, apps := planNodes()
	p, err := GeneratePlan("delta-test", w, core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyNone}, manager, apps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReconfigDelta(p, core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerJob, LB: core.StrategyNone}); err == nil {
		t.Error("contradictory target accepted")
	}
	if _, err := ReconfigDelta(&deploy.Plan{Name: "empty"}, core.Config{AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyNone}); err == nil {
		t.Error("plan without admission controller accepted")
	}
}

// failoverWorkload3 is a three-processor workload exercising every failover
// outcome when processor 1 dies: "piped" re-homes its stage-1 onto replica 2,
// "solo" has no replica and is withdrawn, and "other" merely loses processor
// 1 from a replica list.
func failoverWorkload3(t *testing.T) *spec.Workload {
	t.Helper()
	w, err := spec.Parse([]byte(`{
	  "name": "failover-test",
	  "processors": 3,
	  "tasks": [
	    {"id": "piped", "kind": "aperiodic", "deadline": "500ms",
	     "subtasks": [
	       {"exec": "5ms", "processor": 0, "replicas": [2]},
	       {"exec": "4ms", "processor": 1, "replicas": [2]}
	     ]},
	    {"id": "solo", "kind": "aperiodic", "deadline": "400ms",
	     "subtasks": [{"exec": "3ms", "processor": 1}]},
	    {"id": "other", "kind": "aperiodic", "deadline": "600ms",
	     "subtasks": [{"exec": "2ms", "processor": 2, "replicas": [1, 0]}]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFailoverDelta(t *testing.T) {
	w := failoverWorkload3(t)
	manager := deploy.Node{Name: "manager", Address: "127.0.0.1:9100", Processor: -1}
	apps := []deploy.Node{
		{Name: "app0", Address: "127.0.0.1:9101", Processor: 0},
		{Name: "app1", Address: "127.0.0.1:9102", Processor: 1},
		{Name: "app2", Address: "127.0.0.1:9103", Processor: 2},
	}
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask}
	p, err := GeneratePlan("failover-test", w, cfg, manager, apps)
	if err != nil {
		t.Fatal(err)
	}

	d, out, err := FailoverDelta(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The dead node is skipped by the executor but kept in the plan.
	if len(d.SkipNodes) != 1 || d.SkipNodes[0] != "app1" {
		t.Errorf("SkipNodes = %v, want [app1]", d.SkipNodes)
	}
	if got := out.Rehomed["piped"][1]; got != 2 {
		t.Errorf("piped stage 1 re-homed to %d, want 2 (lowest surviving replica)", got)
	}
	if len(out.Withdrawn) != 1 || out.Withdrawn[0] != "solo" {
		t.Errorf("Withdrawn = %v, want [solo]", out.Withdrawn)
	}

	// The AC update carries the post-surgery workload: solo gone, piped
	// re-homed with the dead processor purged from every replica list.
	var wlJSON string
	for _, up := range d.Updates {
		if up.ID == "Central-AC" {
			wlJSON = up.Attrs[live.AttrWorkload]
		}
	}
	if wlJSON == "" {
		t.Fatal("delta has no Central-AC workload update")
	}
	next, err := spec.Parse([]byte(wlJSON))
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]spec.TaskSpec, len(next.Tasks))
	for _, task := range next.Tasks {
		byID[task.ID] = task
	}
	if _, ok := byID["solo"]; ok {
		t.Error("withdrawn task still in the post-failover workload")
	}
	piped, ok := byID["piped"]
	if !ok || piped.Subtasks[1].Processor != 2 || len(piped.Subtasks[1].Replicas) != 0 {
		t.Errorf("piped after surgery = %+v", piped)
	}
	other := byID["other"]
	for _, r := range other.Subtasks[0].Replicas {
		if r == 1 {
			t.Errorf("dead processor survives in a replica list: %v", other.Subtasks[0].Replicas)
		}
	}

	// No node hosts processor 7.
	if _, _, err := FailoverDelta(p, 7); err == nil {
		t.Error("FailoverDelta accepted an unhosted processor")
	}
	// A workload whose every task dies with the processor is an error, not an
	// empty deployment.
	solo, err := spec.Parse([]byte(`{
	  "name": "all-lost", "processors": 2,
	  "tasks": [{"id": "s", "kind": "aperiodic", "deadline": "100ms",
	             "subtasks": [{"exec": "2ms", "processor": 1}]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := GeneratePlan("all-lost", solo, cfg,
		deploy.Node{Name: "manager", Address: "127.0.0.1:9200", Processor: -1},
		[]deploy.Node{
			{Name: "app0", Address: "127.0.0.1:9201", Processor: 0},
			{Name: "app1", Address: "127.0.0.1:9202", Processor: 1},
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := FailoverDelta(p2, 1); err == nil {
		t.Error("FailoverDelta produced a deployment with no surviving task")
	}
}

// TestTaskRefsFreshAcrossReadd pins the ref assignment behind the live
// binding's task identity: the plan hands each task a ref once, a task
// removed and added again gets a ref never handed out before, and every
// instance one delta updates receives the same name→ref table.
func TestTaskRefsFreshAcrossReadd(t *testing.T) {
	w := testWorkload(t)
	tasks, err := w.SchedTasks()
	if err != nil {
		t.Fatal(err)
	}
	manager, apps := planNodes()
	p, err := GeneratePlan("refs-test", w, core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}, manager, apps)
	if err != nil {
		t.Fatal(err)
	}
	// tables returns the one refs table the plan's (or the delta's)
	// instances hold, failing on a disagreement.
	tables := func(what string, attrs []map[string]string) []string {
		t.Helper()
		var table string
		n := 0
		for _, a := range attrs {
			if _, ok := a[live.AttrTaskRefs]; !ok {
				continue
			}
			if n++; n > 1 && a[live.AttrTaskRefs] != table {
				t.Fatalf("%s: instances disagree on the refs table: %s vs %s", what, a[live.AttrTaskRefs], table)
			}
			table = a[live.AttrTaskRefs]
		}
		if n != 5 { // the AC, the LB, the standby and two TEs
			t.Fatalf("%s: %d instances carry the refs table, want 5", what, n)
		}
		names, err := live.ParseTaskRefs(table)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return names
	}
	planAttrs := func() []map[string]string {
		var out []map[string]string
		for _, inst := range p.Instances {
			out = append(out, inst.Attrs())
		}
		return out
	}
	deltaAttrs := func(d *deploy.Delta) []map[string]string {
		var out []map[string]string
		for _, up := range d.Updates {
			out = append(out, up.Attrs)
		}
		return out
	}
	subtaskRefs := func(insts []deploy.Instance, task string) []string {
		var out []string
		for _, inst := range insts {
			if a := inst.Attrs(); inst.Implementation == live.ImplSubtask && a[live.AttrTask] == task {
				out = append(out, a[live.AttrTaskRef])
			}
		}
		return out
	}
	if got := tables("plan", planAttrs()); strings.Join(got, ",") != "flow,alert" {
		t.Fatalf("plan refs %q, want flow 0 and alert 1", got)
	}
	if got := subtaskRefs(p.Instances, "alert"); strings.Join(got, ",") != "1" {
		t.Errorf("alert's subtask instances carry refs %q, want 1", got)
	}

	handedOut := map[string]bool{"0": true, "1": true}
	for round := 0; round < 2; round++ {
		rm, err := RemoveTasksDelta(p, []string{"alert"})
		if err != nil {
			t.Fatal(err)
		}
		names := tables("remove", deltaAttrs(rm))
		if slices.Contains(names, "alert") || names[0] != "flow" {
			t.Fatalf("round %d: refs after the removal %q: want alert retired and flow kept at 0", round, names)
		}
		rm.Apply(p)
		add, err := AddTasksDelta(p, []*sched.Task{tasks[1]})
		if err != nil {
			t.Fatal(err)
		}
		names = tables("add", deltaAttrs(add))
		ref := slices.Index(names, "alert")
		if ref < 0 || handedOut[strconv.Itoa(ref)] || names[0] != "flow" {
			t.Fatalf("round %d: refs after the re-add %q: alert must take a ref never handed out (had %v)", round, names, handedOut)
		}
		if got := subtaskRefs(add.Installs, "alert"); len(got) == 0 || slices.ContainsFunc(got, func(r string) bool { return r != strconv.Itoa(ref) }) {
			t.Errorf("round %d: the re-added alert's subtask installs carry refs %q, want %d", round, got, ref)
		}
		handedOut[strconv.Itoa(ref)] = true
		add.Apply(p)
		if got := tables("plan", planAttrs()); !slices.Equal(got, names) {
			t.Errorf("round %d: plan refs %q after applying the delta, want %q", round, got, names)
		}
	}
}
