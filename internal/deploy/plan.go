// Package deploy is the deployment and configuration engine, standing in
// for DAnCE (the OMG Light Weight Deployment and Configuration engine the
// paper extends): it models XML deployment plans, launches them through
// per-node NodeManager servants over the ORB, applies configProperty values
// through the components' Configurator interface, and wires the federated
// event channel connections — the pipeline of the paper's Figure 4.
package deploy

import (
	"encoding/xml"
	"errors"
	"fmt"
)

// ErrPlan is wrapped by every error Parse returns: the bytes are not a
// well-formed, valid deployment plan.
var ErrPlan = errors.New("deploy: malformed plan")

// TypeKindString is the CORBA TypeCode kind used for string-valued
// configuration properties, echoing the paper's Figure 4 XML fragment.
const TypeKindString = "tk_string"

// Plan is an XML deployment plan: nodes, component instances with
// configuration properties, and event-channel connections.
type Plan struct {
	// XMLName pins the root element name.
	XMLName xml.Name `xml:"deploymentPlan"`
	// Name labels the plan.
	Name string `xml:"name,attr"`
	// Nodes declares the participating nodes.
	Nodes []Node `xml:"node"`
	// Instances declares the component instances to install.
	Instances []Instance `xml:"instance"`
	// Connections declares event-channel federation routes.
	Connections []Connection `xml:"connection"`
}

// Node declares one node: a name, its ORB address, and the application
// processor index it represents (-1 for the task manager).
type Node struct {
	// Name is the node's unique name.
	Name string `xml:"name,attr"`
	// Address is the node's ORB endpoint ("host:port").
	Address string `xml:"address,attr"`
	// Processor is the application processor index, or -1 for the manager.
	Processor int `xml:"processor,attr"`
}

// Instance declares one component instance.
type Instance struct {
	// ID is the unique instance name (e.g. "Central-AC").
	ID string `xml:"id,attr"`
	// Node names the hosting node.
	Node string `xml:"node,attr"`
	// Implementation names the component implementation in the repository.
	Implementation string `xml:"implementation,attr"`
	// ConfigProperties configure the instance (the CCM Configurator path).
	ConfigProperties []ConfigProperty `xml:"configProperty"`
}

// ConfigProperty is one attribute setting, in the nested TypeCode shape the
// paper's Figure 4 shows:
//
//	<configProperty>
//	  <name>LB_Strategy</name>
//	  <value><type><kind>tk_string</kind></type><value><string>PT</string></value></value>
//	</configProperty>
type ConfigProperty struct {
	// Name is the attribute name.
	Name string `xml:"name"`
	// Value is the typed value envelope.
	Value PropertyValue `xml:"value"`
}

// PropertyValue is the typed value envelope.
type PropertyValue struct {
	// Type carries the TypeCode kind.
	Type PropertyType `xml:"type"`
	// Value carries the actual value.
	Value PropertyInner `xml:"value"`
}

// PropertyType is the TypeCode element.
type PropertyType struct {
	// Kind is the TypeCode kind (always tk_string here).
	Kind string `xml:"kind"`
}

// PropertyInner is the value element.
type PropertyInner struct {
	// String is the string form of the value.
	String string `xml:"string"`
}

// StringProperty builds a string-typed configProperty.
func StringProperty(name, value string) ConfigProperty {
	return ConfigProperty{
		Name: name,
		Value: PropertyValue{
			Type:  PropertyType{Kind: TypeKindString},
			Value: PropertyInner{String: value},
		},
	}
}

// Attrs flattens an instance's configProperties into the attribute map
// handed to Component.Configure.
func (i Instance) Attrs() map[string]string {
	out := make(map[string]string, len(i.ConfigProperties))
	for _, p := range i.ConfigProperties {
		out[p.Name] = p.Value.Value.String
	}
	return out
}

// Connection routes one event type from a source node's channel to a sink
// node's channel through the federation gateways.
type Connection struct {
	// EventType is the routed event type.
	EventType string `xml:"eventType"`
	// SourceNode and SinkNode name the endpoints.
	SourceNode string `xml:"sourceNode"`
	// SinkNode names the receiving node.
	SinkNode string `xml:"sinkNode"`
}

// Parse decodes and validates a plan. Every error wraps ErrPlan.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	if err := xml.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPlan, err)
	}
	// Encode writes no namespace, so a plan in one would not round-trip.
	if p.XMLName.Space != "" {
		return nil, fmt.Errorf("%w: root element in namespace %q", ErrPlan, p.XMLName.Space)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPlan, err)
	}
	return &p, nil
}

// Encode renders the plan as indented XML with a header.
func (p *Plan) Encode() ([]byte, error) {
	body, err := xml.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("deploy: encode plan: %w", err)
	}
	return append([]byte(xml.Header), append(body, '\n')...), nil
}

// Validate checks referential integrity: unique node and instance names,
// instances on declared nodes, connections between declared nodes.
func (p *Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("deploy: plan has no name")
	}
	nodes := make(map[string]bool, len(p.Nodes))
	for _, n := range p.Nodes {
		if n.Name == "" || n.Address == "" {
			return fmt.Errorf("deploy: node %+v missing name or address", n)
		}
		if nodes[n.Name] {
			return fmt.Errorf("deploy: duplicate node %q", n.Name)
		}
		nodes[n.Name] = true
	}
	ids := make(map[string]bool, len(p.Instances))
	for _, inst := range p.Instances {
		if inst.ID == "" || inst.Implementation == "" {
			return fmt.Errorf("deploy: instance %+v missing id or implementation", inst)
		}
		if ids[inst.ID] {
			return fmt.Errorf("deploy: duplicate instance %q", inst.ID)
		}
		ids[inst.ID] = true
		if !nodes[inst.Node] {
			return fmt.Errorf("deploy: instance %q on undeclared node %q", inst.ID, inst.Node)
		}
	}
	for _, c := range p.Connections {
		if c.EventType == "" {
			return fmt.Errorf("deploy: connection with empty event type")
		}
		if !nodes[c.SourceNode] || !nodes[c.SinkNode] {
			return fmt.Errorf("deploy: connection %s: %q -> %q references undeclared node",
				c.EventType, c.SourceNode, c.SinkNode)
		}
		if c.SourceNode == c.SinkNode {
			return fmt.Errorf("deploy: connection %s: source and sink are both %q (local delivery needs no connection)",
				c.EventType, c.SourceNode)
		}
	}
	return nil
}

// NodeByName finds a declared node.
func (p *Plan) NodeByName(name string) (Node, bool) {
	for _, n := range p.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return Node{}, false
}

// InstancesOn returns the instances hosted on a node, in plan order.
func (p *Plan) InstancesOn(node string) []Instance {
	var out []Instance
	for _, inst := range p.Instances {
		if inst.Node == node {
			out = append(out, inst)
		}
	}
	return out
}
