package deploy

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"

	"repro/internal/eventchan"
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

// Execute runs one delta against the live nodes. Every deployment message
// goes through it, in one order:
//
//  1. ping every node the delta activates;
//  2. quiesce admission, if the delta names a manager; the reply is the
//     epoch the transaction enters;
//  3. install the new component instances;
//  4. wire the federation routes, before any strategy that emits on them is
//     enabled: a component whose new strategy started emitting before its
//     route landed would push into a gateway with no sink, and the gateway
//     ignores re-adds;
//  5. apply the attribute updates, manager-hosted instances first, each
//     stamped with the epoch;
//  6. activate the named nodes' containers;
//  7. resume admission, replaying the arrivals deferred meanwhile.
//
// An initial deployment and a node redeployment name no manager, so they
// neither quiesce nor resume. Nothing is sent to a skipped node. A failure
// aborts with the failing step; after a quiesce, admission is resumed first,
// so a failed transaction degrades to a partially updated but live
// deployment rather than a wedged one.
func (l *Launcher) Execute(ctx context.Context, d *Delta) (*ReconfigOutcome, error) {
	addr := make(map[string]string, len(d.Plan.Nodes))
	for _, n := range d.Plan.Nodes {
		addr[n.Name] = n.Address
	}
	for _, n := range d.Activate {
		if _, err := l.invoke(ctx, addr[n], NodeManagerKey, opPing, nil); err != nil {
			return nil, fmt.Errorf("deploy: node %s unreachable: %w", n, err)
		}
	}
	out := &ReconfigOutcome{NodeTimings: make(map[string]time.Duration)}
	start := time.Now()
	resume := func() (int64, error) { return 0, nil }
	if d.ManagerNode != "" {
		managerAddr, ok := addr[d.ManagerNode]
		if !ok || slices.Contains(d.SkipNodes, d.ManagerNode) {
			return nil, fmt.Errorf("deploy: manager node %q not in plan or skipped", d.ManagerNode)
		}
		call := func(op string) (int64, error) {
			reply, err := l.invoke(ctx, managerAddr, d.ManagerKey, op, nil)
			if err != nil {
				return 0, fmt.Errorf("deploy: %s: %w", op, err)
			}
			v, err := strconv.ParseInt(string(reply), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("deploy: %s reply %q: %w", op, reply, ErrRequest)
			}
			return v, nil
		}
		var err error
		if out.Epoch, err = call("Quiesce"); err != nil {
			return nil, err
		}
		resume = func() (int64, error) { return call("Resume") }
	}
	// The delta as messages, in order; the updates carry the epoch.
	type message struct {
		node, op, what string
		body           []byte
	}
	var msgs []message
	for _, inst := range d.Installs {
		body := AppendInstall(nil, &InstallRequest{ID: inst.ID, Implementation: inst.Implementation, Attrs: inst.Attrs()})
		msgs = append(msgs, message{inst.Node, opInstall, "install " + inst.ID, body})
	}
	for _, conn := range d.Connections {
		sink, _ := d.Plan.NodeByName(conn.SinkNode)
		req := ConnectRequest{EventType: conn.EventType, SinkAddr: sink.Address, SinkProc: sink.Processor}
		if sink.Processor < 0 {
			req.SinkProc = eventchan.NoProcessor
		}
		if !slices.Contains(d.SkipNodes, conn.SinkNode) {
			what := fmt.Sprintf("connect %s %s->%s", conn.EventType, conn.SourceNode, conn.SinkNode)
			msgs = append(msgs, message{conn.SourceNode, opConnect, what, AppendConnect(nil, &req)})
		}
	}
	for _, up := range d.Updates {
		attrs := make(map[string]string, len(up.Attrs)+1)
		maps.Copy(attrs, up.Attrs)
		if d.EpochAttr != "" {
			attrs[d.EpochAttr] = strconv.FormatInt(out.Epoch, 10)
		}
		msgs = append(msgs, message{up.Node, opReconfigure, "reconfigure " + up.ID, AppendReconfig(nil, &ReconfigRequest{ID: up.ID, Attrs: attrs})})
	}
	for _, n := range d.Activate {
		msgs = append(msgs, message{n, opActivate, "activate", nil})
	}
	for _, m := range msgs {
		if slices.Contains(d.SkipNodes, m.node) {
			continue
		}
		t0 := time.Now()
		if _, err := l.invoke(ctx, addr[m.node], NodeManagerKey, m.op, m.body); err != nil {
			err = fmt.Errorf("deploy: %s on %s: %w", m.what, m.node, err)
			// Never leave admission quiesced.
			if _, rerr := resume(); rerr != nil {
				return nil, fmt.Errorf("%w (and resume failed: %v)", err, rerr)
			}
			return nil, err
		}
		out.NodeTimings[m.node] += time.Since(t0)
	}
	deferred, err := resume()
	if err != nil {
		return nil, err
	}
	out.Deferred = deferred
	if d.ManagerNode != "" {
		out.QuiesceDuration = time.Since(start)
	}
	return out, nil
}

// Ping probes one node's NodeManager liveness over the ORB — the health
// tooling's per-node probe.
func (l *Launcher) Ping(ctx context.Context, addr string) error {
	_, err := l.invoke(ctx, addr, NodeManagerKey, opPing, nil)
	return err
}

// invoke performs one call against a node's servant with the launcher
// timeout and returns the reply bytes (the reconfiguration facet's Quiesce
// and Resume operations answer with values).
func (l *Launcher) invoke(ctx context.Context, addr, key, op string, body []byte) ([]byte, error) {
	cctx, cancel := context.WithTimeout(ctx, l.timeout)
	defer cancel()
	return l.orb.Invoke(cctx, addr, key, op, body)
}
