package live

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ccm"
	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

const testWorkloadJSON = `{
  "name": "unit",
  "processors": 2,
  "tasks": [
    {"id": "p", "kind": "periodic", "period": "100ms", "deadline": "100ms",
     "subtasks": [{"exec": "5ms", "processor": 0, "replicas": [1]}]},
    {"id": "a", "kind": "aperiodic", "deadline": "80ms",
     "subtasks": [{"exec": "4ms", "processor": 1}]}
  ]
}`

// testTaskRefs gives testWorkloadJSON's tasks refs 0 (p) and 1 (a).
const testTaskRefs = `["p","a"]`

// teAttrs configures an effector on processor proc under admission control
// ac and no load balancing.
func teAttrs(proc, ac string) map[string]string {
	return map[string]string{AttrProcessor: proc, AttrACStrategy: ac, AttrLBStrategy: "N", AttrWorkload: testWorkloadJSON, AttrTaskRefs: testTaskRefs}
}

func acAttrs() map[string]string {
	return map[string]string{
		AttrACStrategy: "J",
		AttrIRStrategy: "T",
		AttrLBStrategy: "N",
		AttrProcessors: "2",
		AttrWorkload:   testWorkloadJSON,
		AttrTaskRefs:   testTaskRefs,
	}
}

func TestAdmissionControllerConfigure(t *testing.T) {
	ac := NewAdmissionController()
	if err := ac.Configure(acAttrs()); err != nil {
		t.Fatal(err)
	}
	if ac.Controller() == nil {
		t.Fatal("controller not built")
	}
	if got := ac.Controller().Config().String(); got != "J_T_N" {
		t.Errorf("config = %s", got)
	}
	// A plan folded through reconfigurations records the running epoch.
	attrs := acAttrs()
	attrs[AttrEpoch] = "3"
	rejoined := NewAdmissionController()
	if err := rejoined.Configure(attrs); err != nil || rejoined.Epoch() != 3 {
		t.Errorf("Configure with epoch 3: %v, epoch %d", err, rejoined.Epoch())
	}

	tests := []struct {
		name   string
		mutate func(map[string]string)
	}{
		{"missing AC strategy", func(m map[string]string) { delete(m, AttrACStrategy) }},
		{"bad strategy", func(m map[string]string) { m[AttrIRStrategy] = "Z" }},
		{"bad processors", func(m map[string]string) { m[AttrProcessors] = "x" }},
		{"missing workload", func(m map[string]string) { delete(m, AttrWorkload) }},
		{"broken workload", func(m map[string]string) { m[AttrWorkload] = "{" }},
		{"contradictory combo", func(m map[string]string) { m[AttrACStrategy] = "T"; m[AttrIRStrategy] = "J" }},
		{"bad epoch", func(m map[string]string) { m[AttrEpoch] = "x" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			attrs := acAttrs()
			tt.mutate(attrs)
			if err := NewAdmissionController().Configure(attrs); err == nil {
				t.Error("Configure accepted invalid attrs")
			}
		})
	}
}

func TestAdmissionControllerActivateRequiresConfigure(t *testing.T) {
	ac := NewAdmissionController()
	node, err := NewNode("t", -1, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	err = ac.Activate(&ccm.Context{Node: "t", ORB: node.ORB, Events: node.Channel})
	if err == nil {
		t.Error("Activate before Configure succeeded")
	}
}

func TestTaskEffectorConfigure(t *testing.T) {
	te := NewTaskEffector()
	if err := te.Configure(teAttrs("1", "T")); err != nil {
		t.Fatal(err)
	}
	if te.Proc() != 1 {
		t.Errorf("Proc() = %d", te.Proc())
	}
	for _, drop := range []string{AttrWorkload, AttrACStrategy, AttrLBStrategy} {
		attrs := teAttrs("0", "T")
		delete(attrs, drop)
		if err := NewTaskEffector().Configure(attrs); err == nil {
			t.Errorf("Configure without %s succeeded", drop)
		}
	}
	attrs := teAttrs("zero", "T")
	if err := NewTaskEffector().Configure(attrs); err == nil {
		t.Error("Configure with bad processor succeeded")
	}
}

func TestTaskEffectorArriveUnknownTask(t *testing.T) {
	te := NewTaskEffector()
	if err := te.Configure(teAttrs("0", "J")); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode("te-test", 0, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := te.Activate(&ccm.Context{Node: "te-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	if _, err := te.SubmitJob("ghost"); err == nil {
		t.Error("Arrive(ghost) succeeded")
	}
	if err := te.Passivate(); err != nil {
		t.Fatal(err)
	}
	if _, err := te.SubmitJob("p"); err == nil {
		t.Error("Arrive after Passivate succeeded")
	}
}

func subtaskAttrs() map[string]string {
	return map[string]string{
		AttrTask:      "p",
		AttrTaskRef:   "0",
		AttrStage:     "0",
		AttrExec:      "5ms",
		AttrPriority:  "2",
		AttrDeadline:  "100ms",
		AttrKind:      "periodic",
		AttrLast:      "true",
		AttrProcessor: "0",
	}
}

func TestSubtaskConfigure(t *testing.T) {
	if err := NewSubtask().Configure(subtaskAttrs()); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(map[string]string)
	}{
		{"missing task", func(m map[string]string) { delete(m, AttrTaskRef) }},
		{"bad stage", func(m map[string]string) { m[AttrStage] = "x" }},
		{"bad exec", func(m map[string]string) { m[AttrExec] = "fast" }},
		{"bad kind", func(m map[string]string) { m[AttrKind] = "sometimes" }},
		{"bad last", func(m map[string]string) { m[AttrLast] = "maybe" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			attrs := subtaskAttrs()
			tt.mutate(attrs)
			if err := NewSubtask().Configure(attrs); err == nil {
				t.Error("Configure accepted invalid attrs")
			}
		})
	}
}

func TestSubtaskActivateRequiresExecutor(t *testing.T) {
	st := NewSubtask()
	if err := st.Configure(subtaskAttrs()); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode("st-test", 0, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx := &ccm.Context{Node: "st-test", ORB: node.ORB, Events: node.Channel}
	if err := st.Activate(ctx); err == nil {
		t.Error("Activate without executor service succeeded")
	}
}

func TestIdleResetterConfigure(t *testing.T) {
	ir := NewIdleResetter()
	if err := ir.Configure(map[string]string{AttrProcessor: "0", AttrIRStrategy: "J"}); err != nil {
		t.Fatal(err)
	}
	if err := NewIdleResetter().Configure(map[string]string{AttrProcessor: "0"}); err == nil {
		t.Error("Configure without strategy succeeded")
	}
	// Strategy None activates inertly even without an executor.
	inert := NewIdleResetter()
	if err := inert.Configure(map[string]string{AttrProcessor: "0", AttrIRStrategy: "N"}); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode("ir-test", 0, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := inert.Activate(&ccm.Context{Node: "ir-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterAll(t *testing.T) {
	reg := ccm.NewRegistry()
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	impls := reg.Implementations()
	want := []string{ImplAdmissionController, ImplHeartbeatBeacon, ImplIdleResetter, ImplLoadBalancer, ImplSubtask, ImplTaskEffector}
	if len(impls) != len(want) {
		t.Fatalf("Implementations = %v", impls)
	}
	for _, name := range want {
		if _, err := reg.Create(name); err != nil {
			t.Errorf("Create(%s): %v", name, err)
		}
	}
	// Double registration fails loudly.
	if err := Register(reg); err == nil {
		t.Error("second Register succeeded")
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	in := Trigger{
		Task: 1, Job: 42, Stage: 1,
		Placement: []sched.PlacedStage{{Stage: 0, Proc: 2, Util: 0.25}},
	}
	out, err := DecodeTrigger(AppendTrigger(nil, &in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Task != in.Task || out.Job != in.Job || len(out.Placement) != 1 || out.Placement[0].Proc != 2 {
		t.Errorf("round trip = %+v", out)
	}
	if _, err := DecodeTrigger([]byte("garbage")); !errors.Is(err, ErrPayload) {
		t.Errorf("garbage decoded: err = %v, want ErrPayload", err)
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode("x", 0, "127.0.0.1:0", 0); err == nil {
		t.Error("zero execScale accepted")
	}
	if _, err := NewNode("x", 0, "256.0.0.1:99999", 1); err == nil {
		t.Error("bad bind address accepted")
	}
}

func TestAttrHelpers(t *testing.T) {
	attrs := map[string]string{"s": "v", "i": "7", "d": "25ms", "b": "true"}
	if v, err := attrString(attrs, "s"); err != nil || v != "v" {
		t.Errorf("attrString = %q, %v", v, err)
	}
	if _, err := attrString(attrs, "missing"); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("attrString missing = %v", err)
	}
	if n, err := attrInt(attrs, "i"); err != nil || n != 7 {
		t.Errorf("attrInt = %d, %v", n, err)
	}
	if d, err := attrDuration(attrs, "d"); err != nil || d != 25*time.Millisecond {
		t.Errorf("attrDuration = %v, %v", d, err)
	}
	if b, err := attrBool(attrs, "b"); err != nil || !b {
		t.Errorf("attrBool = %v, %v", b, err)
	}
	if b, err := attrBool(attrs, "absent"); err != nil || b {
		t.Errorf("attrBool absent = %v, %v", b, err)
	}
	if _, err := attrBool(map[string]string{"b": "probably"}, "b"); err == nil {
		t.Error("attrBool accepted garbage")
	}
}

// TestStageProcShortPlacement: a Trigger off the wire may carry a placement
// shorter than its task has stages. The next stage then has no processor to
// address, and the event must be broadcast (where every subtask's filter
// drops it), not index past the slice.
func TestStageProcShortPlacement(t *testing.T) {
	placement := []sched.PlacedStage{{Stage: 0, Proc: 2}}
	if got := stageProc(placement, 0); got != 2 {
		t.Errorf("stageProc(stage 0) = %d, want 2", got)
	}
	for _, s := range []int{1, -1} {
		if got := stageProc(placement, s); got != eventchan.NoProcessor {
			t.Errorf("stageProc(stage %d) = %d, want NoProcessor", s, got)
		}
	}
	if got := stageProc(nil, 0); got != eventchan.NoProcessor {
		t.Errorf("stageProc(nil, 0) = %d, want NoProcessor", got)
	}
}

// TestPassivateWaitsForReleaseInFlight: a decision that found the effector
// open must have published its Release before Passivate returns, because the
// node's channel and transport are torn down right after (Node.Close, a
// killed node) and a Release counted but refused by a closed ORB is a lost
// job. Decisions arriving after Passivate are ignored.
func TestPassivateWaitsForReleaseInFlight(t *testing.T) {
	te := NewTaskEffector()
	if err := te.Configure(teAttrs("0", "J")); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode("te-test", 0, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := te.Activate(&ccm.Context{Node: "te-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	entered, proceed := make(chan struct{}), make(chan struct{})
	node.Channel.Subscribe(EvRelease, func(eventchan.Event) {
		close(entered)
		<-proceed
	})
	accept := func(job int64) {
		_ = node.Channel.Push(eventchan.Event{Type: EvAccept, Payload: AppendAccept(nil, &Accept{
			Task: 0, Job: job, Ok: true, Placement: []sched.PlacedStage{{Stage: 0, Proc: 0}},
		})})
	}
	for i := 0; i < 2; i++ {
		if adm, err := te.SubmitJob("p"); err != nil || adm.Outcome != core.AdmissionPending {
			t.Fatalf("SubmitJob = %+v, %v; want a pending hold", adm, err)
		}
	}
	go accept(0)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the decision never released its job")
	}
	passivated := make(chan struct{})
	go func() {
		_ = te.Passivate()
		close(passivated)
	}()
	select {
	case <-passivated:
		t.Fatal("Passivate returned while a Release was being published")
	case <-time.After(50 * time.Millisecond):
	}
	close(proceed)
	select {
	case <-passivated:
	case <-time.After(5 * time.Second):
		t.Fatal("Passivate never returned")
	}
	accept(1)
	if got := te.StatsSnapshot().Released; got != 1 {
		t.Errorf("released %d jobs, want 1: the decision after Passivate must be ignored", got)
	}
}
