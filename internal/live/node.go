package live

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/ccm"
	"repro/internal/eventchan"
	"repro/internal/orb"
	"repro/internal/sched"
	"repro/internal/spec"
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

// NodeTransportStats combines a node's write-path and event-plane counters
// for overload accounting.
type NodeTransportStats struct {
	// ORB counts frames, flushes and bytes.
	ORB orb.TransportStats
	// Events counts pushes, forwards and failed forwards.
	Events eventchan.PlaneStats
}

// NewNode assembles and starts a node listening on bindAddr (use
// "127.0.0.1:0" for tests). execScale compresses subtask execution times;
// pass 1.0 for real time.
func NewNode(name string, proc int, bindAddr string, execScale float64) (*Node, error) {
	if execScale <= 0 {
		return nil, fmt.Errorf("live: node %s: execScale must be positive, got %g", name, execScale)
	}
	o := orb.New(name)
	addr, err := o.Listen(bindAddr)
	if err != nil {
		return nil, err
	}
	ch := eventchan.New(name, o)
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

// ParseWorkload parses the Workload attribute (a spec document) into the
// task set keyed by ref, each task's ref read from the TaskRefs attribute
// that travels with it: the one join of the two attributes, for the
// components and the cluster's task table alike. When the attribute is
// optional and absent or empty the set is nil; when it is required that
// fails as attrString does.
func ParseWorkload(attrs map[string]string, required bool) (map[sched.TaskRef]*sched.Task, error) {
	if !required && attrs[AttrWorkload] == "" {
		return nil, nil
	}
	wl, err := attrString(attrs, AttrWorkload)
	if err != nil {
		return nil, err
	}
	w, err := spec.Parse([]byte(wl))
	if err != nil {
		return nil, err
	}
	tasks, err := w.SchedTasks()
	if err != nil {
		return nil, err
	}
	table, err := attrString(attrs, AttrTaskRefs)
	if err != nil {
		return nil, err
	}
	names, err := ParseTaskRefs(table)
	if err != nil {
		return nil, err
	}
	refOf := make(map[string]sched.TaskRef, len(names))
	for i, name := range names {
		refOf[name] = sched.TaskRef(i)
	}
	out := make(map[sched.TaskRef]*sched.Task, len(tasks))
	for _, t := range tasks {
		ref, ok := refOf[t.ID]
		if !ok {
			return nil, fmt.Errorf("live: attribute %q has no ref for task %q", AttrTaskRefs, t.ID)
		}
		out[ref] = t
	}
	return out, nil
}

// ParseTaskRefs decodes a TaskRefs attribute: a JSON array of task IDs in
// which position i names the task holding ref i, and "" a retired ref.
func ParseTaskRefs(s string) ([]string, error) {
	var names []string
	if err := json.Unmarshal([]byte(s), &names); err != nil {
		return nil, fmt.Errorf("live: attribute %q: %w", AttrTaskRefs, err)
	}
	return names, nil
}

// FormatTaskRefs encodes a TaskRefs attribute (ParseTaskRefs).
func FormatTaskRefs(names []string) string {
	b, _ := json.Marshal(names) // a []string always marshals
	return string(b)
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
