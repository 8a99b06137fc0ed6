package ccm

import (
	"errors"
	"testing"

	"repro/internal/eventchan"
	"repro/internal/orb"
)

// fakeComponent records lifecycle calls.
type fakeComponent struct {
	name        string
	configured  map[string]string
	activated   bool
	passivated  bool
	log         *[]string
	failOn      string // "configure" | "activate" | "passivate"
	activations int
}

func (f *fakeComponent) Configure(attrs map[string]string) error {
	if f.failOn == "configure" {
		return errors.New("configure failed")
	}
	f.configured = attrs
	return nil
}

func (f *fakeComponent) Activate(ctx *Context) error {
	if f.failOn == "activate" {
		return errors.New("activate failed")
	}
	f.activated = true
	f.activations++
	if f.log != nil {
		*f.log = append(*f.log, "activate:"+f.name)
	}
	return nil
}

func (f *fakeComponent) Passivate() error {
	if f.failOn == "passivate" {
		return errors.New("passivate failed")
	}
	f.passivated = true
	if f.log != nil {
		*f.log = append(*f.log, "passivate:"+f.name)
	}
	return nil
}

func testContext(t *testing.T) *Context {
	t.Helper()
	o := orb.New("test-node")
	t.Cleanup(o.Shutdown)
	return &Context{Node: "test-node", ORB: o, Events: eventchan.New("test-node", o)}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("AC", func() Component { return &fakeComponent{name: "ac"} }); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("AC", func() Component { return nil }); err == nil {
		t.Error("duplicate registration succeeded")
	}
	if err := r.Register("nil", nil); err == nil {
		t.Error("nil factory registered")
	}
	comp, err := r.Create("AC")
	if err != nil {
		t.Fatal(err)
	}
	if comp.(*fakeComponent).name != "ac" {
		t.Error("factory not invoked")
	}
	if _, err := r.Create("missing"); err == nil {
		t.Error("unknown implementation created")
	}
	if err := r.Register("LB", func() Component { return &fakeComponent{name: "lb"} }); err != nil {
		t.Fatal(err)
	}
	if got := r.Implementations(); len(got) != 2 || got[0] != "AC" || got[1] != "LB" {
		t.Errorf("Implementations() = %v, want [AC LB]", got)
	}
}

func TestContainerLifecycleOrder(t *testing.T) {
	c := NewContainer(testContext(t))
	var log []string
	a := &fakeComponent{name: "a", log: &log}
	b := &fakeComponent{name: "b", log: &log}
	if err := c.Install("a", a, map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Install("b", b, nil); err != nil {
		t.Fatal(err)
	}
	if a.configured["k"] != "v" {
		t.Error("attributes not delivered to Configure")
	}
	if err := c.Activate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	want := []string{"activate:a", "activate:b", "passivate:b", "passivate:a"}
	if len(log) != len(want) {
		t.Fatalf("lifecycle log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("lifecycle log = %v, want %v", log, want)
		}
	}
}

func TestContainerInstallErrors(t *testing.T) {
	c := NewContainer(testContext(t))
	if err := c.Install("x", nil, nil); err == nil {
		t.Error("nil component installed")
	}
	bad := &fakeComponent{failOn: "configure"}
	if err := c.Install("bad", bad, nil); err == nil {
		t.Error("failing Configure accepted")
	}
	ok := &fakeComponent{}
	if err := c.Install("dup", ok, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Install("dup", &fakeComponent{}, nil); err == nil {
		t.Error("duplicate instance ID accepted")
	}
}

func TestContainerActivateUnwindsOnFailure(t *testing.T) {
	c := NewContainer(testContext(t))
	good := &fakeComponent{name: "good"}
	bad := &fakeComponent{name: "bad", failOn: "activate"}
	if err := c.Install("good", good, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Install("bad", bad, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Activate(); err == nil {
		t.Fatal("activation succeeded despite failing component")
	}
	if !good.passivated {
		t.Error("previously activated component not unwound")
	}
}

func TestContainerDynamicInstallAfterActivate(t *testing.T) {
	c := NewContainer(testContext(t))
	if err := c.Activate(); err != nil {
		t.Fatal(err)
	}
	late := &fakeComponent{name: "late"}
	if err := c.Install("late", late, nil); err != nil {
		t.Fatal(err)
	}
	if !late.activated {
		t.Error("post-activation install not activated immediately")
	}
	if err := c.Activate(); err == nil {
		t.Error("double activation succeeded")
	}
}

func TestContainerLookup(t *testing.T) {
	c := NewContainer(testContext(t))
	comp := &fakeComponent{}
	if err := c.Install("id1", comp, nil); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Lookup("id1")
	if !ok || got != Component(comp) {
		t.Error("Lookup failed for installed instance")
	}
	if _, ok := c.Lookup("nope"); ok {
		t.Error("Lookup found missing instance")
	}
	ids := c.InstanceIDs()
	if len(ids) != 1 || ids[0] != "id1" {
		t.Errorf("InstanceIDs = %v", ids)
	}
}

func TestContainerShutdownCollectsErrors(t *testing.T) {
	c := NewContainer(testContext(t))
	bad := &fakeComponent{failOn: "passivate"}
	good := &fakeComponent{}
	if err := c.Install("bad", bad, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Install("good", good, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Activate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err == nil {
		t.Error("Shutdown swallowed passivation error")
	}
	if !good.passivated {
		t.Error("good component not passivated despite sibling failure")
	}
}

func TestNewContainerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("incomplete context did not panic")
		}
	}()
	NewContainer(&Context{})
}

// reconfigurableComponent is a fakeComponent that also accepts live
// attribute changes.
type reconfigurableComponent struct {
	fakeComponent
	reconfigured map[string]string
	failReconfig bool
}

func (r *reconfigurableComponent) Reconfigure(attrs map[string]string) error {
	if r.failReconfig {
		return errors.New("reconfigure failed")
	}
	r.reconfigured = attrs
	return nil
}

func TestContainerReconfigureLifecycle(t *testing.T) {
	c := NewContainer(testContext(t))
	rc := &reconfigurableComponent{}
	plain := &fakeComponent{}
	if err := c.Install("rc", rc, map[string]string{"A": "1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Install("plain", plain, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.State(); got != StateAssembling {
		t.Errorf("state before activation = %s", got)
	}

	// Reconfiguration is an active-only lifecycle stage.
	if err := c.Reconfigure("rc", map[string]string{"A": "2"}); err == nil {
		t.Error("reconfigure before activation succeeded")
	}
	if err := c.Activate(); err != nil {
		t.Fatal(err)
	}
	if got := c.State(); got != StateActive {
		t.Errorf("state after activation = %s", got)
	}

	attrs := map[string]string{"A": "2"}
	if err := c.Reconfigure("rc", attrs); err != nil {
		t.Fatal(err)
	}
	if rc.reconfigured["A"] != "2" {
		t.Errorf("attrs not applied: %v", rc.reconfigured)
	}
	// Boundary copy: caller mutations must not leak into the component.
	attrs["A"] = "tampered"
	if rc.reconfigured["A"] != "2" {
		t.Error("attribute map not boundary-copied")
	}
	if got := c.State(); got != StateActive {
		t.Errorf("state after reconfiguration = %s", got)
	}

	// Unknown and non-reconfigurable instances fail cleanly.
	if err := c.Reconfigure("ghost", nil); err == nil {
		t.Error("unknown instance reconfigured")
	}
	if err := c.Reconfigure("plain", nil); err == nil {
		t.Error("non-reconfigurable component reconfigured")
	}

	// A failing component reconfiguration surfaces and the container stays
	// Active.
	rc.failReconfig = true
	if err := c.Reconfigure("rc", nil); err == nil {
		t.Error("component failure swallowed")
	}
	if got := c.State(); got != StateActive {
		t.Errorf("state after failed reconfiguration = %s", got)
	}

	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := c.State(); got != StateStopped {
		t.Errorf("state after shutdown = %s", got)
	}
	if err := c.Reconfigure("rc", nil); err == nil {
		t.Error("reconfigure after shutdown succeeded")
	}
}

func TestContainerStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateAssembling: "Assembling",
		StateActive:     "Active",
		StateStopped:    "Stopped",
		State(42):       "State(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
