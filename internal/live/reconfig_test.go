package live

import (
	"errors"
	"testing"

	"repro/internal/ccm"
	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

// TestSentinelErrors pins the exported sentinels so Binding callers can
// discriminate failures with errors.Is.
func TestSentinelErrors(t *testing.T) {
	// Activate before Configure → ErrNotConfigured.
	node, err := NewNode("sent-test", -1, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx := &ccm.Context{Node: "sent-test", ORB: node.ORB, Events: node.Channel}
	if err := NewAdmissionController().Activate(ctx); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("AC Activate error = %v, want ErrNotConfigured", err)
	}
	if err := NewIdleResetter().Activate(ctx); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("IR Activate error = %v, want ErrNotConfigured", err)
	}
	if err := NewTaskEffector().Reconfigure(nil); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("TE Reconfigure error = %v, want ErrNotConfigured", err)
	}

	// Bad strategy attributes → ErrInvalidStrategy.
	attrs := acAttrs()
	attrs[AttrIRStrategy] = "Z"
	if err := NewAdmissionController().Configure(attrs); !errors.Is(err, ErrInvalidStrategy) {
		t.Errorf("bad strategy error = %v, want ErrInvalidStrategy", err)
	}
	attrs = acAttrs()
	attrs[AttrACStrategy] = "T"
	attrs[AttrIRStrategy] = "J"
	if err := NewAdmissionController().Configure(attrs); !errors.Is(err, ErrInvalidStrategy) {
		t.Errorf("contradictory combo error = %v, want ErrInvalidStrategy", err)
	}

	// Configure after Activate → ErrAlreadyActive.
	ac := NewAdmissionController()
	if err := ac.Configure(acAttrs()); err != nil {
		t.Fatal(err)
	}
	if err := ac.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ac.Configure(acAttrs()); !errors.Is(err, ErrAlreadyActive) {
		t.Errorf("re-Configure error = %v, want ErrAlreadyActive", err)
	}

	// Reconfigure without quiesce → ErrNotQuiesced; double quiesce →
	// ErrQuiesced.
	if err := ac.Reconfigure(map[string]string{}); !errors.Is(err, ErrNotQuiesced) {
		t.Errorf("unquiesced Reconfigure error = %v, want ErrNotQuiesced", err)
	}
	if _, err := ac.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.Quiesce(); !errors.Is(err, ErrQuiesced) {
		t.Errorf("double Quiesce error = %v, want ErrQuiesced", err)
	}
	if _, err := ac.Resume(); err != nil {
		t.Fatal(err)
	}
}

// TestACReconfigureSwapsStrategies pins the AC's hot-swap under quiesce:
// the embedded controller changes combination without being rebuilt.
func TestACReconfigureSwapsStrategies(t *testing.T) {
	node, err := NewNode("acre-test", -1, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ac := NewAdmissionController()
	if err := ac.Configure(acAttrs()); err != nil { // J_T_N
		t.Fatal(err)
	}
	if err := ac.Activate(&ccm.Context{Node: "acre-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	ctrl := ac.Controller()
	epoch, err := ac.Quiesce()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Errorf("upcoming epoch = %d", epoch)
	}
	err = ac.Reconfigure(map[string]string{
		AttrACStrategy: "J", AttrIRStrategy: "J", AttrLBStrategy: "J", AttrEpoch: "1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ac.Resume(); err != nil || n != 0 {
		t.Fatalf("Resume = %d, %v", n, err)
	}
	if got := ctrl.Config().String(); got != "J_J_J" {
		t.Errorf("controller config = %s, want J_J_J", got)
	}
	if ac.Controller() != ctrl {
		t.Error("controller was rebuilt; the ledger did not survive")
	}
	if ac.Epoch() != 1 {
		t.Errorf("epoch = %d", ac.Epoch())
	}
	// Invalid target under quiesce leaves the config untouched.
	if _, err := ac.Quiesce(); err != nil {
		t.Fatal(err)
	}
	err = ac.Reconfigure(map[string]string{AttrACStrategy: "T", AttrIRStrategy: "J"})
	if !errors.Is(err, ErrInvalidStrategy) {
		t.Errorf("contradictory Reconfigure error = %v", err)
	}
	// A malformed epoch must also fail BEFORE anything mutates: an error
	// return means nothing changed.
	if err := ac.Reconfigure(map[string]string{AttrACStrategy: "T", AttrEpoch: "bogus"}); err == nil {
		t.Error("bogus epoch accepted")
	}
	if _, err := ac.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Config().String(); got != "J_J_J" {
		t.Errorf("config disturbed by rejected target: %s", got)
	}
	if ac.Epoch() != 1 {
		t.Errorf("epoch disturbed by rejected target: %d", ac.Epoch())
	}
}

// TestTEReconfigureDropsStaleDecisions pins the epoch filter: cached
// per-task decisions clear on reconfigure, and an Accept stamped with the
// old epoch releases its job without being re-cached.
func TestTEReconfigureDropsStaleDecisions(t *testing.T) {
	node, err := NewNode("tere-test", 0, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	te := NewTaskEffector()
	if err := te.Configure(teAttrs("0", "T")); err != nil {
		t.Fatal(err)
	}
	if err := te.Activate(&ccm.Context{Node: "tere-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	// Arrive then deliver an epoch-0 per-task decision: it caches.
	if _, err := te.SubmitJob("p"); err != nil {
		t.Fatal(err)
	}
	accept := func(job int64, epoch int64) {
		te.onAccept(eventchan.Event{Type: EvAccept, Payload: AppendAccept(nil, &Accept{
			Task: "p", Job: job, Ok: true,
			Placement:       []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.05}},
			PerTaskDecision: true,
			Epoch:           epoch,
		})})
	}
	accept(0, 0)
	if !cached(te, "p") {
		t.Fatal("decision not cached")
	}

	// Reconfigure to epoch 1: the cache clears.
	if err := te.Reconfigure(map[string]string{AttrEpoch: "1"}); err != nil {
		t.Fatal(err)
	}
	if cached(te, "p") {
		t.Fatal("cache survived reconfigure")
	}

	// A stale epoch-0 Accept for a held job releases it but is not cached.
	if _, err := te.SubmitJob("p"); err != nil {
		t.Fatal(err)
	}
	accept(1, 0)
	if cached(te, "p") {
		t.Error("stale-epoch decision was cached")
	}
	if released := te.StatsSnapshot().Released; released != 2 {
		t.Errorf("released = %d, want 2 (stale decision must still release its job)", released)
	}
	// A current-epoch Accept caches again.
	if _, err := te.SubmitJob("p"); err != nil {
		t.Fatal(err)
	}
	accept(2, 1)
	if !cached(te, "p") {
		t.Error("current-epoch decision not cached")
	}
}

// TestIRReconfigureSwapsRule pins the IR hot-swap: pending completions are
// refiltered and the strategy changes in place.
func TestIRReconfigureSwapsRule(t *testing.T) {
	ir := core.NewIdleResetter(core.StrategyPerJob, 0)
	ir.Complete(sched.JobRef{Task: "p", Job: 0}, 0, sched.Periodic, 1e9)
	ir.Complete(sched.JobRef{Task: "a", Job: 0}, 0, sched.Aperiodic, 1e9)
	if ir.PendingCount() != 2 {
		t.Fatalf("pending = %d", ir.PendingCount())
	}
	// Per-job → per-task drops the pending periodic completion.
	ir.SetStrategy(core.StrategyPerTask)
	if ir.PendingCount() != 1 {
		t.Errorf("pending after per-task swap = %d, want 1", ir.PendingCount())
	}
	// → none drops everything.
	ir.SetStrategy(core.StrategyNone)
	if ir.PendingCount() != 0 {
		t.Errorf("pending after none swap = %d", ir.PendingCount())
	}

	// The live component refuses enabling IR without an executor.
	comp := NewIdleResetter()
	if err := comp.Configure(map[string]string{AttrProcessor: "0", AttrIRStrategy: "N"}); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode("irre-test", 0, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := comp.Activate(&ccm.Context{Node: "irre-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	if err := comp.Reconfigure(map[string]string{AttrIRStrategy: "J"}); err == nil {
		t.Error("IR enabled resetting without an executor service")
	}
	if err := comp.Reconfigure(map[string]string{}); err != nil {
		t.Errorf("no-op reconfigure failed: %v", err)
	}
}
