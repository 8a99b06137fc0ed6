package deploy

import (
	"context"
	"fmt"
	"time"

	"repro/internal/orb"
)

// Launcher executes deployment plans: DAnCE's Plan Launcher + Execution
// Manager. It talks to each node's NodeManager servant over the given ORB.
type Launcher struct {
	orb     *orb.ORB
	timeout time.Duration
}

// NewLauncher returns a launcher using the ORB for node invocations.
func NewLauncher(o *orb.ORB) *Launcher {
	return &Launcher{orb: o, timeout: 10 * time.Second}
}

// Execute deploys the plan: it pings every node, installs every instance in
// plan order, wires every connection, then activates every node's
// container. Any failure aborts with a descriptive error; the paper's
// deployment model treats a failed deployment as fatal at system
// initialization time.
func (l *Launcher) Execute(ctx context.Context, p *Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	addr := make(map[string]string, len(p.Nodes))
	for _, n := range p.Nodes {
		addr[n.Name] = n.Address
		if err := l.invoke(ctx, n.Address, opPing, nil); err != nil {
			return fmt.Errorf("deploy: node %s unreachable: %w", n.Name, err)
		}
	}
	for _, inst := range p.Instances {
		req := InstallRequest{
			ID:             inst.ID,
			Implementation: inst.Implementation,
			Attrs:          inst.Attrs(),
		}
		body, err := gobEncode(req)
		if err != nil {
			return err
		}
		if err := l.invoke(ctx, addr[inst.Node], opInstall, body); err != nil {
			return fmt.Errorf("deploy: install %s on %s: %w", inst.ID, inst.Node, err)
		}
	}
	for _, conn := range p.Connections {
		if err := l.connect(ctx, p, conn); err != nil {
			return fmt.Errorf("deploy: %w", err)
		}
	}
	for _, n := range p.Nodes {
		if err := l.invoke(ctx, n.Address, opActivate, nil); err != nil {
			return fmt.Errorf("deploy: activate node %s: %w", n.Name, err)
		}
	}
	return nil
}

// RedeployNode re-deploys one node of an already-running plan: it pings the
// node, installs every plan instance hosted there, wires the plan
// connections it sources, re-points peers' routes that sink into it (their
// gateways learned a dead predecessor's address), and activates the
// container. The node-recovery path uses it after replacing a failed node
// with a fresh one at a new address — the plan, kept truthful by Delta.Apply
// across reconfigurations and failovers, is the installation source.
func (l *Launcher) RedeployNode(ctx context.Context, p *Plan, node string) error {
	addr := make(map[string]string, len(p.Nodes))
	found := false
	for _, n := range p.Nodes {
		addr[n.Name] = n.Address
		if n.Name == node {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("deploy: redeploy: node %q not in plan", node)
	}
	if err := l.invoke(ctx, addr[node], opPing, nil); err != nil {
		return fmt.Errorf("deploy: redeploy: node %s unreachable: %w", node, err)
	}
	for _, inst := range p.Instances {
		if inst.Node != node {
			continue
		}
		req := InstallRequest{ID: inst.ID, Implementation: inst.Implementation, Attrs: inst.Attrs()}
		body, err := gobEncode(req)
		if err != nil {
			return err
		}
		if err := l.invoke(ctx, addr[node], opInstall, body); err != nil {
			return fmt.Errorf("deploy: redeploy: install %s on %s: %w", inst.ID, node, err)
		}
	}
	for _, conn := range p.Connections {
		if conn.SourceNode != node && conn.SinkNode != node {
			continue
		}
		if err := l.connect(ctx, p, conn); err != nil {
			return fmt.Errorf("deploy: redeploy: %w", err)
		}
	}
	if err := l.invoke(ctx, addr[node], opActivate, nil); err != nil {
		return fmt.Errorf("deploy: redeploy: activate node %s: %w", node, err)
	}
	return nil
}

// connect asks the connection's source node to forward the event type to its
// sink node, telling the gateway which processor the sink is so addressed
// events skip it when they are for another.
func (l *Launcher) connect(ctx context.Context, p *Plan, conn Connection) error {
	src, _ := p.NodeByName(conn.SourceNode)
	sink, _ := p.NodeByName(conn.SinkNode)
	body, err := gobEncode(ConnectRequest{
		EventType: conn.EventType,
		SinkAddr:  sink.Address,
		SinkProc:  sink.Processor + 1,
	})
	if err != nil {
		return err
	}
	if err := l.invoke(ctx, src.Address, opConnect, body); err != nil {
		return fmt.Errorf("connect %s %s->%s: %w", conn.EventType, conn.SourceNode, conn.SinkNode, err)
	}
	return nil
}

// Ping probes one node's NodeManager liveness over the ORB — the health
// tooling's per-node probe.
func (l *Launcher) Ping(ctx context.Context, addr string) error {
	return l.invoke(ctx, addr, opPing, nil)
}

// invoke performs one NodeManager call with the launcher timeout.
func (l *Launcher) invoke(ctx context.Context, addr, op string, body []byte) error {
	_, err := l.invokeReply(ctx, addr, NodeManagerKey, op, body)
	return err
}

// invokeReply performs one call against an arbitrary servant key with the
// launcher timeout and returns the reply bytes (the reconfiguration
// facet's Quiesce/Resume operations answer with values).
func (l *Launcher) invokeReply(ctx context.Context, addr, key, op string, body []byte) ([]byte, error) {
	cctx, cancel := context.WithTimeout(ctx, l.timeout)
	defer cancel()
	return l.orb.Invoke(cctx, addr, key, op, body)
}
