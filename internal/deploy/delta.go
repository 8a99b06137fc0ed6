package deploy

import (
	"context"
	"fmt"
	"strconv"
	"time"
)

// This file is the reconfiguration half of the deployment engine: instead
// of a full deployment plan (which tears nothing down), the configuration
// engine emits a Delta — the minimal set of per-instance attribute updates
// and added federation routes that move a *running* deployment from one
// strategy combination to another — and the launcher executes it as an
// epoch-versioned two-phase transaction against the live nodes.

// InstanceUpdate is one component instance's live attribute change.
type InstanceUpdate struct {
	// ID is the instance name (e.g. "Central-AC").
	ID string
	// Node names the hosting node.
	Node string
	// Attrs are the attribute values to apply through the component's
	// Reconfigure lifecycle stage. The launcher stamps the coordination
	// epoch in before sending.
	Attrs map[string]string
}

// Delta is a reconfiguration transaction against a running deployment.
type Delta struct {
	// Plan is the running deployment the delta applies to; it supplies the
	// node addresses.
	Plan *Plan
	// FromConfig and ToConfig are the AC_IR_LB tuples before and after. A
	// task-set delta (AddTasks/RemoveTasks) leaves them equal.
	FromConfig, ToConfig string
	// Installs are new component instances the delta deploys onto running
	// nodes (the open-world AddTasks path installs the added tasks' subtask
	// components). They install — and activate, the containers being live —
	// under the quiesce, before any attribute update, so by the time the
	// task effectors learn the new tasks their subtask components exist.
	Installs []Instance
	// Updates are the per-instance attribute changes, applied in order. The
	// manager-hosted instances (Central-AC) come first so the policy object
	// swaps before the effector caches reset.
	Updates []InstanceUpdate
	// Connections are federation routes the new configuration needs that
	// the running plan does not have (e.g. IdleReset routes when idle
	// resetting turns on, or Trigger routes for an added task's stage
	// chain). Existing routes are never removed: a stale route only forwards
	// events nobody publishes.
	Connections []Connection
	// SkipNodes names nodes the executor must not RPC — a failover delta
	// lists the dead node here. Updates, installs and connections touching a
	// skipped node are still folded into the plan by Apply (the plan keeps
	// describing the intended deployment, which is what a later node
	// recovery reinstalls from); they are simply not sent anywhere.
	SkipNodes []string
	// ManagerNode names the node hosting the admission controller's
	// reconfiguration facet, and ManagerKey its ORB object key.
	ManagerNode string
	ManagerKey  string
	// EpochAttr is the attribute name under which the launcher stamps the
	// coordination epoch into every update.
	EpochAttr string
}

// Apply folds the delta into the plan in memory, so a plan kept alongside a
// running deployment continues to describe it after the reconfiguration:
// installed instances and added connections are appended and matching
// configProperty values are replaced. The epoch attribute is not persisted —
// it is coordination state, not configuration.
func (d *Delta) Apply(p *Plan) {
	p.Instances = append(p.Instances, d.Installs...)
	for _, up := range d.Updates {
		for i := range p.Instances {
			if p.Instances[i].ID != up.ID {
				continue
			}
			for name, value := range up.Attrs {
				if name == d.EpochAttr {
					continue
				}
				replaced := false
				for j := range p.Instances[i].ConfigProperties {
					if p.Instances[i].ConfigProperties[j].Name == name {
						p.Instances[i].ConfigProperties[j] = StringProperty(name, value)
						replaced = true
						break
					}
				}
				if !replaced {
					p.Instances[i].ConfigProperties = append(p.Instances[i].ConfigProperties, StringProperty(name, value))
				}
			}
		}
	}
	p.Connections = append(p.Connections, d.Connections...)
}

// ReconfigOutcome reports one executed reconfiguration transaction.
type ReconfigOutcome struct {
	// Epoch is the epoch the deployment entered.
	Epoch int64
	// Deferred is the number of arrivals the admission controller buffered
	// during the quiesce and replayed under the new configuration.
	Deferred int64
	// QuiesceDuration is the wall-clock span from Quiesce to Resume.
	QuiesceDuration time.Duration
	// NodeTimings records per-node swap RPC time (attribute updates plus
	// route wiring), keyed by node name.
	NodeTimings map[string]time.Duration
}

// ExecuteReconfig runs the delta against the live deployment as the
// two-phase protocol: quiesce admission on the manager, apply every
// instance update (stamped with the new epoch) through the NodeManagers'
// Reconfigure operation, wire the added federation routes, then resume —
// replaying the arrivals buffered meanwhile under the new configuration.
// On a mid-transaction failure admission is resumed before returning, so a
// failed swap degrades to a partially-updated but live deployment rather
// than a wedged one; the error reports the failing step.
func (l *Launcher) ExecuteReconfig(ctx context.Context, d *Delta) (*ReconfigOutcome, error) {
	if d == nil || d.Plan == nil {
		return nil, fmt.Errorf("deploy: reconfig: nil delta or plan")
	}
	addr := make(map[string]string, len(d.Plan.Nodes))
	for _, n := range d.Plan.Nodes {
		addr[n.Name] = n.Address
	}
	managerAddr, ok := addr[d.ManagerNode]
	if !ok {
		return nil, fmt.Errorf("deploy: reconfig: manager node %q not in plan", d.ManagerNode)
	}
	skip := make(map[string]bool, len(d.SkipNodes))
	for _, n := range d.SkipNodes {
		skip[n] = true
	}
	if skip[d.ManagerNode] {
		return nil, fmt.Errorf("deploy: reconfig: manager node %q cannot be skipped", d.ManagerNode)
	}

	// Phase one: quiesce admission; the reply names the epoch the swap
	// enters.
	start := time.Now()
	reply, err := l.invokeReply(ctx, managerAddr, d.ManagerKey, "Quiesce", nil)
	if err != nil {
		return nil, fmt.Errorf("deploy: reconfig: quiesce: %w", err)
	}
	var epoch int64
	if err := gobDecode(reply, &epoch); err != nil {
		return nil, fmt.Errorf("deploy: reconfig: quiesce reply: %w", err)
	}

	out := &ReconfigOutcome{Epoch: epoch, NodeTimings: make(map[string]time.Duration)}
	resume := func() (int64, error) {
		reply, err := l.invokeReply(ctx, managerAddr, d.ManagerKey, "Resume", nil)
		if err != nil {
			return 0, fmt.Errorf("deploy: reconfig: resume: %w", err)
		}
		var n int64
		if err := gobDecode(reply, &n); err != nil {
			return 0, fmt.Errorf("deploy: reconfig: resume reply: %w", err)
		}
		return n, nil
	}
	fail := func(stepErr error) (*ReconfigOutcome, error) {
		// Never leave admission quiesced: a failed swap must degrade to a
		// live system.
		if _, rerr := resume(); rerr != nil {
			return nil, fmt.Errorf("%w (and resume failed: %v)", stepErr, rerr)
		}
		return nil, stepErr
	}

	// Phase two: install any new component instances first. They activate
	// immediately (the containers are live) but stay inert — no effector or
	// admission controller knows their tasks until the attribute updates
	// land, so nothing routes events to them yet.
	for _, inst := range d.Installs {
		if skip[inst.Node] {
			continue
		}
		req := InstallRequest{ID: inst.ID, Implementation: inst.Implementation, Attrs: inst.Attrs()}
		body, err := gobEncode(req)
		if err != nil {
			return fail(err)
		}
		t0 := time.Now()
		if err := l.invoke(ctx, addr[inst.Node], opInstall, body); err != nil {
			return fail(fmt.Errorf("deploy: reconfig: install %s on %s: %w", inst.ID, inst.Node, err))
		}
		out.NodeTimings[inst.Node] += time.Since(t0)
	}
	// Then wire the added federation routes BEFORE enabling the new
	// strategies. The reverse order has a loss window — a component whose
	// new strategy starts emitting (an idle resetter's first report, say)
	// before its route lands pushes into a gateway with no sink and the
	// event vanishes. Wiring first is strictly safe: the gateway ignores
	// re-adds and the still-old-strategy components emit nothing new.
	for _, conn := range d.Connections {
		if skip[conn.SourceNode] || skip[conn.SinkNode] {
			continue
		}
		t0 := time.Now()
		if err := l.connect(ctx, d.Plan, conn); err != nil {
			return fail(fmt.Errorf("deploy: reconfig: %w", err))
		}
		out.NodeTimings[conn.SourceNode] += time.Since(t0)
	}
	// Then swap strategies on every node, stamped with the epoch.
	for _, up := range d.Updates {
		if skip[up.Node] {
			continue
		}
		attrs := make(map[string]string, len(up.Attrs)+1)
		for k, v := range up.Attrs {
			attrs[k] = v
		}
		if d.EpochAttr != "" {
			attrs[d.EpochAttr] = strconv.FormatInt(epoch, 10)
		}
		body, err := gobEncode(ReconfigRequest{ID: up.ID, Attrs: attrs})
		if err != nil {
			return fail(err)
		}
		t0 := time.Now()
		if err := l.invoke(ctx, addr[up.Node], opReconfigure, body); err != nil {
			return fail(fmt.Errorf("deploy: reconfig: %s on %s: %w", up.ID, up.Node, err))
		}
		out.NodeTimings[up.Node] += time.Since(t0)
	}

	// Phase two's tail: resume admission; deferred arrivals replay under
	// the new configuration.
	deferred, err := resume()
	if err != nil {
		return nil, err
	}
	out.Deferred = deferred
	out.QuiesceDuration = time.Since(start)
	return out, nil
}
