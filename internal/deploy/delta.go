package deploy

import (
	"fmt"
	"slices"
	"time"
)

// A Delta is every message the launcher sends, as data: installs, routes,
// attribute updates and node activations. The initial deployment
// (Plan.Deployment) and a node's redeployment (Plan.Redeployment) are deltas
// that name no manager; the configuration engine's reconfiguration deltas —
// a strategy swap, added or removed tasks, a failover — name one, and the
// launcher executes them as an epoch-versioned two-phase transaction against
// the live nodes (Launcher.Execute).

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

// Delta is one launcher transaction against a deployment.
type Delta struct {
	// Plan is the deployment the delta applies to; it supplies the node
	// addresses.
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
	// Activate names the nodes whose containers the delta activates, after
	// everything else; the executor pings them before anything else.
	Activate []string
	// SkipNodes names nodes the executor must not RPC — a failover delta
	// lists the dead node here. Updates, installs and connections touching a
	// skipped node are still folded into the plan by Apply (the plan keeps
	// describing the intended deployment, which is what a later node
	// recovery reinstalls from); they are simply not sent anywhere.
	SkipNodes []string
	// ManagerNode names the node hosting the admission controller's
	// reconfiguration facet, and ManagerKey its ORB object key. A delta that
	// names a manager runs under its quiesce; one that does not (a
	// deployment) has no admission to hold.
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
			inst := &p.Instances[i]
			if inst.ID != up.ID {
				continue
			}
			for name, value := range up.Attrs {
				if name == d.EpochAttr {
					continue
				}
				prop := StringProperty(name, value)
				if j := slices.IndexFunc(inst.ConfigProperties, func(c ConfigProperty) bool { return c.Name == name }); j >= 0 {
					inst.ConfigProperties[j] = prop
				} else {
					inst.ConfigProperties = append(inst.ConfigProperties, prop)
				}
			}
		}
	}
	p.Connections = append(p.Connections, d.Connections...)
}

// Deployment returns the delta that deploys the whole plan onto fresh nodes:
// every instance in plan order, every connection, every node activated. It
// is the plan itself, so it is not applied back to it.
func (p *Plan) Deployment() (*Delta, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Delta{Plan: p, Installs: p.Instances, Connections: p.Connections}
	for _, n := range p.Nodes {
		d.Activate = append(d.Activate, n.Name)
	}
	return d, nil
}

// Redeployment returns the delta that redeploys one node of a running plan
// onto a fresh node at the plan's address for it: the instances it hosts,
// the connections it sources, the peers' connections that sink into it
// (their gateways knew a dead predecessor's address), and its activation.
// Node recovery uses it; the plan, kept truthful by Apply across
// reconfigurations and failovers, is the installation source.
func (p *Plan) Redeployment(node string) (*Delta, error) {
	if _, ok := p.NodeByName(node); !ok {
		return nil, fmt.Errorf("deploy: redeploy: node %q not in plan", node)
	}
	d := &Delta{Plan: p, Installs: p.InstancesOn(node), Activate: []string{node}}
	for _, c := range p.Connections {
		if c.SourceNode == node || c.SinkNode == node {
			d.Connections = append(d.Connections, c)
		}
	}
	return d, nil
}

// ReconfigOutcome reports one executed delta.
type ReconfigOutcome struct {
	// Epoch is the epoch the deployment entered (zero without a manager).
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
