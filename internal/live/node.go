package live

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/ccm"
	"repro/internal/eventchan"
	"repro/internal/orb"
)

// Service names components resolve from the container context.
const (
	// SvcExecutor is the node's *Executor.
	SvcExecutor = "executor"
	// SvcExecScale is a float64 multiplier applied to subtask execution
	// times (examples and tests compress time with values < 1).
	SvcExecScale = "execscale"
	// SvcContainer is the node's *ccm.Container, for components that
	// resolve co-deployed peers (the LB's receptacle to the AC).
	SvcContainer = "container"
)

// Node is one live middleware node: an ORB endpoint, a federated event
// channel, an executor, and a component container. Application processors
// and the task manager are both Nodes; the manager simply hosts different
// components and takes Proc = -1.
type Node struct {
	// Name is the node's diagnostic name.
	Name string
	// Proc is the application processor index, or -1 for the task manager.
	Proc int
	// Addr is the bound ORB listen address.
	Addr string

	// ORB, Channel, Container and Executor are the node's substrates.
	ORB       *orb.ORB
	Channel   *eventchan.Channel
	Container *ccm.Container
	Executor  *Executor
}

// NodeOption tunes a node's transport stack at assembly time.
type NodeOption func(*nodeConfig)

// nodeConfig collects the transport options a NodeOption may set.
type nodeConfig struct {
	chanOpts []eventchan.Option
}

// WithChannelOptions forwards options to the node's event channel (the
// full-sink overflow policy).
func WithChannelOptions(opts ...eventchan.Option) NodeOption {
	return func(c *nodeConfig) { c.chanOpts = append(c.chanOpts, opts...) }
}

// NodeTransportStats combines a node's write-path and event-plane counters
// for overload accounting.
type NodeTransportStats struct {
	// ORB counts frames, flushes and bytes.
	ORB orb.TransportStats
	// Events counts pushes, forwards, federation batches and drops.
	Events eventchan.PlaneStats
}

// NewNode assembles and starts a node listening on bindAddr (use
// "127.0.0.1:0" for tests). execScale compresses subtask execution times;
// pass 1.0 for real time.
func NewNode(name string, proc int, bindAddr string, execScale float64, opts ...NodeOption) (*Node, error) {
	if execScale <= 0 {
		return nil, fmt.Errorf("live: node %s: execScale must be positive, got %g", name, execScale)
	}
	var cfg nodeConfig
	// Live nodes default the gateway to the Block policy: the event plane
	// carries control events (Accept, Release, Trigger) whose silent loss
	// strands admitted jobs, so a full sink throttles pushers instead of
	// shedding. Deployments that prefer shedding pass
	// WithChannelOptions(eventchan.WithSinkPolicy(eventchan.DropNewest)).
	cfg.chanOpts = append(cfg.chanOpts, eventchan.WithSinkPolicy(eventchan.Block))
	for _, opt := range opts {
		opt(&cfg)
	}
	o := orb.New(name)
	addr, err := o.Listen(bindAddr)
	if err != nil {
		return nil, err
	}
	ch := eventchan.New(name, o, cfg.chanOpts...)
	exec := NewExecutor()
	ctx := &ccm.Context{
		Node:   name,
		ORB:    o,
		Events: ch,
		Services: map[string]any{
			SvcExecutor:  exec,
			SvcExecScale: execScale,
		},
	}
	container := ccm.NewContainer(ctx)
	ctx.Services[SvcContainer] = container
	return &Node{
		Name:      name,
		Proc:      proc,
		Addr:      addr.String(),
		ORB:       o,
		Channel:   ch,
		Container: container,
		Executor:  exec,
	}, nil
}

// Close shuts the node down: container passivation, executor stop, then
// transport teardown.
func (n *Node) Close() error {
	err := n.Container.Shutdown()
	n.Executor.Close()
	n.Channel.Close()
	n.ORB.Shutdown()
	return err
}

// TransportStats snapshots the node's transport-plane counters.
func (n *Node) TransportStats() NodeTransportStats {
	return NodeTransportStats{
		ORB:    n.ORB.TransportStats(),
		Events: n.Channel.PlaneStats(),
	}
}

// --- attribute helpers shared by the live components ---

// attrString fetches a required string attribute.
func attrString(attrs map[string]string, key string) (string, error) {
	v, ok := attrs[key]
	if !ok || v == "" {
		return "", fmt.Errorf("live: missing attribute %q", key)
	}
	return v, nil
}

// attrInt fetches a required integer attribute.
func attrInt(attrs map[string]string, key string) (int, error) {
	s, err := attrString(attrs, key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("live: attribute %q: %w", key, err)
	}
	return n, nil
}

// attrInt64 fetches a required 64-bit integer attribute.
func attrInt64(attrs map[string]string, key string) (int64, error) {
	s, err := attrString(attrs, key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("live: attribute %q: %w", key, err)
	}
	return n, nil
}

// attrDuration fetches a required duration attribute ("250ms").
func attrDuration(attrs map[string]string, key string) (time.Duration, error) {
	s, err := attrString(attrs, key)
	if err != nil {
		return 0, err
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("live: attribute %q: %w", key, err)
	}
	return d, nil
}

// attrBool fetches an optional boolean attribute (default false).
func attrBool(attrs map[string]string, key string) (bool, error) {
	s, ok := attrs[key]
	if !ok || s == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(s)
	if err != nil {
		return false, fmt.Errorf("live: attribute %q: %w", key, err)
	}
	return b, nil
}
