package deploy

import (
	"fmt"
	"sync"

	"repro/internal/ccm"
	"repro/internal/eventchan"
	"repro/internal/orb"
)

// NodeManagerKey is the ORB object key every node's manager servant binds.
const NodeManagerKey = "nodemanager"

// NodeManager operations.
const (
	opInstall     = "Install"
	opConnect     = "Connect"
	opActivate    = "Activate"
	opPing        = "Ping"
	opReconfigure = "Reconfigure"
)

// InstallRequest asks a node to instantiate, configure and register one
// component (DAnCE's NodeImplementationInfo → NodeApplication →
// set_configuration path).
type InstallRequest struct {
	// ID is the instance name.
	ID string
	// Implementation names the factory in the node's component repository.
	Implementation string
	// Attrs are the flattened configProperty values.
	Attrs map[string]string
}

// ReconfigRequest asks a node to apply a live attribute change to one
// activated instance through the component's Reconfigure lifecycle stage.
type ReconfigRequest struct {
	// ID is the instance name.
	ID string
	// Attrs are the attribute values to change (including the coordination
	// epoch stamped by the launcher).
	Attrs map[string]string
}

// ConnectRequest asks a node's gateway to forward an event type to a peer.
type ConnectRequest struct {
	// EventType is the routed type.
	EventType string
	// SinkAddr is the peer channel's ORB address.
	SinkAddr string
	// SinkProc is the sink node's processor, or eventchan.NoProcessor for
	// the manager: the gateway then forwards every addressed event there.
	SinkProc int
}

// NodeManager is the per-node deployment servant: the counterpart of
// DAnCE's NodeApplicationManager + NodeApplication, installing components
// from the local repository into the local container.
type NodeManager struct {
	registry  *ccm.Registry
	container *ccm.Container
	channel   *eventchan.Channel

	mu        sync.Mutex
	activated bool
}

// NewNodeManager builds the servant and registers it on the node's ORB.
func NewNodeManager(o *orb.ORB, registry *ccm.Registry, container *ccm.Container, channel *eventchan.Channel) *NodeManager {
	nm := &NodeManager{registry: registry, container: container, channel: channel}
	o.RegisterServant(NodeManagerKey, nm.dispatch)
	return nm
}

// dispatch serves the NodeManager operations.
func (nm *NodeManager) dispatch(op string, arg []byte) ([]byte, error) {
	switch op {
	case opPing:
		return []byte("pong"), nil
	case opInstall:
		req, err := DecodeInstall(arg)
		if err != nil {
			return nil, err
		}
		return nil, nm.install(req)
	case opConnect:
		req, err := DecodeConnect(arg)
		if err != nil {
			return nil, err
		}
		nm.channel.AddProcessorSink(req.EventType, req.SinkAddr, req.SinkProc)
		return nil, nil
	case opReconfigure:
		req, err := DecodeReconfig(arg)
		if err != nil {
			return nil, err
		}
		nm.mu.Lock()
		activated := nm.activated
		nm.mu.Unlock()
		if !activated {
			return nil, fmt.Errorf("deploy: nodemanager: reconfigure %s before activation", req.ID)
		}
		return nil, nm.container.Reconfigure(req.ID, req.Attrs)
	case opActivate:
		nm.mu.Lock()
		defer nm.mu.Unlock()
		if nm.activated {
			return nil, nil
		}
		if err := nm.container.Activate(); err != nil {
			return nil, err
		}
		nm.activated = true
		return nil, nil
	default:
		return nil, fmt.Errorf("deploy: nodemanager: unknown operation %q", op)
	}
}

// install creates and configures one component instance.
func (nm *NodeManager) install(req InstallRequest) error {
	comp, err := nm.registry.Create(req.Implementation)
	if err != nil {
		return err
	}
	return nm.container.Install(req.ID, comp, req.Attrs)
}
