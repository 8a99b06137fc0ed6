// Package ccm is a lightweight component model in the spirit of the Light
// Weight CORBA Component Model that CIAO implements and the paper builds
// its services on: components are units of implementation with configurable
// attributes and ports, installed into per-node containers that provide the
// execution context (ORB, local event channel) and drive the lifecycle
// (configure → activate → passivate).
//
// The paper's key claim about this layer is that it turns scheduling
// strategies into "installable and configurable units": the same component
// implementation is instantiated with different attribute values (e.g.
// AC_Strategy=PT vs PJ) by the deployment engine, with no code changes.
package ccm

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/eventchan"
	"repro/internal/orb"
)

// Context is the container-provided execution environment handed to a
// component at activation.
type Context struct {
	// Node is the hosting node's name.
	Node string
	// ORB is the node's object request broker, for facet registration and
	// receptacle invocations.
	ORB *orb.ORB
	// Events is the node's local event channel (with its federation
	// gateways), for event source/sink ports.
	Events *eventchan.Channel
	// Services carries binding-specific node services (e.g. the live
	// binding's executor) that components resolve at activation, like CCM
	// container-provided facets.
	Services map[string]any
}

// Service returns a named container service, or nil.
func (c *Context) Service(name string) any {
	if c.Services == nil {
		return nil
	}
	return c.Services[name]
}

// Component is the unit of implementation and composition. Implementations
// are registered in a Registry and instantiated by the deployment engine.
type Component interface {
	// Configure applies attribute values (the CCM Configurator /
	// set_configuration path). It is called exactly once, before Activate.
	Configure(attrs map[string]string) error
	// Activate wires the component's ports into the container context and
	// starts any internal dispatch threads.
	Activate(ctx *Context) error
	// Passivate stops internal activity and waits for it to finish. It is
	// called at container shutdown, after which the component is discarded.
	Passivate() error
}

// Reconfigurable is the optional fourth lifecycle stage: components that
// implement it accept attribute changes while active, without passivation.
// Reconfigure receives only the attributes being changed (plus the
// coordination epoch), applies them atomically with respect to the
// component's own event handlers, and leaves the component running. It is
// the hot-swap half of the paper's "installable and configurable units"
// claim: the same instance serves a new strategy value with no redeploy.
type Reconfigurable interface {
	Reconfigure(attrs map[string]string) error
}

// Factory creates one component instance.
type Factory func() Component

// Registry maps component implementation names to factories: the component
// repository the deployment engine installs from.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register adds an implementation. Duplicate names are an error so deployers
// notice conflicting repositories.
func (r *Registry) Register(implementation string, f Factory) error {
	if f == nil {
		return errors.New("ccm: nil factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.factories[implementation]; ok {
		return fmt.Errorf("ccm: implementation %q already registered", implementation)
	}
	r.factories[implementation] = f
	return nil
}

// Create instantiates an implementation by name.
func (r *Registry) Create(implementation string) (Component, error) {
	r.mu.RLock()
	f, ok := r.factories[implementation]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ccm: unknown implementation %q", implementation)
	}
	return f(), nil
}

// Implementations lists registered names in sorted order.
func (r *Registry) Implementations() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for name := range r.factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// instance is one installed component with its metadata.
type instance struct {
	id   string
	comp Component
}

// State is a container's lifecycle position. The machine is
//
//	Assembling → Active → Stopped
//	     └───────────────────┘
//
// A live attribute change (Reconfigure) runs in Active; installs and
// lookups keep working throughout, so a reconfiguration never blocks the
// data plane.
type State int

// Container lifecycle states.
const (
	// StateAssembling is the initial state: instances install and configure
	// but nothing runs yet.
	StateAssembling State = iota
	// StateActive means every installed instance is activated.
	StateActive
	// StateStopped means the container has shut down.
	StateStopped
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateAssembling:
		return "Assembling"
	case StateActive:
		return "Active"
	case StateStopped:
		return "Stopped"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Container hosts component instances on one node and drives their
// lifecycle. Install order is preserved: activation runs in install order
// and passivation in reverse, so consumers can be activated before
// producers.
type Container struct {
	ctx *Context

	mu        sync.Mutex
	instances []instance
	byID      map[string]Component
	state     State
}

// NewContainer returns a container bound to the node context.
func NewContainer(ctx *Context) *Container {
	if ctx == nil || ctx.ORB == nil || ctx.Events == nil {
		panic("ccm: container requires a complete context")
	}
	return &Container{ctx: ctx, byID: make(map[string]Component)}
}

// Node returns the hosting node's name.
func (c *Container) Node() string { return c.ctx.Node }

// State returns the container's lifecycle state.
func (c *Container) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Install configures and registers a component instance under a unique ID.
// If the container is already activated, the instance is activated
// immediately (dynamic installs during reconfiguration).
func (c *Container) Install(id string, comp Component, attrs map[string]string) error {
	if comp == nil {
		return errors.New("ccm: nil component")
	}
	// Copy attrs at the boundary so later caller mutations cannot leak in.
	copied := make(map[string]string, len(attrs))
	for k, v := range attrs {
		copied[k] = v
	}
	if err := comp.Configure(copied); err != nil {
		return fmt.Errorf("ccm: configure %s: %w", id, err)
	}
	c.mu.Lock()
	if _, ok := c.byID[id]; ok {
		c.mu.Unlock()
		return fmt.Errorf("ccm: instance %q already installed", id)
	}
	c.instances = append(c.instances, instance{id: id, comp: comp})
	c.byID[id] = comp
	activated := c.state == StateActive
	c.mu.Unlock()
	// Activate outside the lock: components may look up peers in the
	// container from Activate.
	if activated {
		if err := comp.Activate(c.ctx); err != nil {
			return fmt.Errorf("ccm: activate %s: %w", id, err)
		}
	}
	return nil
}

// Lookup returns an installed instance by ID.
func (c *Container) Lookup(id string) (Component, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	comp, ok := c.byID[id]
	return comp, ok
}

// InstanceIDs lists installed instance IDs in install order.
func (c *Container) InstanceIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.instances))
	for i, in := range c.instances {
		out[i] = in.id
	}
	return out
}

// Activate activates every installed instance in install order. On failure,
// already-activated instances are passivated in reverse order before the
// error is returned. Component Activate calls run outside the container
// lock so they may resolve peers via Lookup.
func (c *Container) Activate() error {
	c.mu.Lock()
	if c.state != StateAssembling {
		c.mu.Unlock()
		return errors.New("ccm: container already activated")
	}
	c.state = StateActive
	instances := append([]instance(nil), c.instances...)
	c.mu.Unlock()

	for i, in := range instances {
		if err := in.comp.Activate(c.ctx); err != nil {
			for j := i - 1; j >= 0; j-- {
				// Best effort unwind; the activation error dominates.
				_ = instances[j].comp.Passivate()
			}
			c.mu.Lock()
			c.state = StateAssembling
			c.mu.Unlock()
			return fmt.Errorf("ccm: activate %s: %w", in.id, err)
		}
	}
	return nil
}

// Reconfigure applies a live attribute change to one activated instance —
// the container lifecycle's hot path for strategy swaps. The instance must
// implement Reconfigurable; attribute maps are boundary-copied as in
// Install. The container must be Active; the component's own Reconfigure
// is responsible for atomicity with respect to its event handlers.
func (c *Container) Reconfigure(id string, attrs map[string]string) error {
	c.mu.Lock()
	if c.state != StateActive {
		c.mu.Unlock()
		return fmt.Errorf("ccm: reconfigure %s: container is %s, not active", id, c.state)
	}
	comp, ok := c.byID[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("ccm: reconfigure: instance %q not installed", id)
	}
	c.mu.Unlock()
	rc, ok := comp.(Reconfigurable)
	if !ok {
		return fmt.Errorf("ccm: instance %q (%T) is not reconfigurable", id, comp)
	}

	copied := make(map[string]string, len(attrs))
	for k, v := range attrs {
		copied[k] = v
	}
	if err := rc.Reconfigure(copied); err != nil {
		return fmt.Errorf("ccm: reconfigure %s: %w", id, err)
	}
	return nil
}

// Shutdown passivates every instance in reverse install order, returning the
// first error encountered (all instances are still passivated). Passivation
// runs outside the container lock, mirroring Activate.
func (c *Container) Shutdown() error {
	c.mu.Lock()
	instances := append([]instance(nil), c.instances...)
	c.state = StateStopped
	c.mu.Unlock()

	var firstErr error
	for i := len(instances) - 1; i >= 0; i-- {
		if err := instances[i].comp.Passivate(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("ccm: passivate %s: %w", instances[i].id, err)
		}
	}
	return firstErr
}
