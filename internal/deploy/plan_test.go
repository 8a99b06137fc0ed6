package deploy

import (
	"strings"
	"testing"
)

func samplePlan() *Plan {
	return &Plan{
		Name: "test",
		Nodes: []Node{
			{Name: "manager", Address: "127.0.0.1:9000", Processor: -1},
			{Name: "app0", Address: "127.0.0.1:9001", Processor: 0},
		},
		Instances: []Instance{
			{
				ID: "Central-AC", Node: "manager", Implementation: "AdmissionController",
				ConfigProperties: []ConfigProperty{StringProperty("LB_Strategy", "PT")},
			},
			{ID: "TE-0", Node: "app0", Implementation: "TaskEffector"},
		},
		Connections: []Connection{
			{EventType: "TaskArrive", SourceNode: "app0", SinkNode: "manager"},
		},
	}
}

func TestPlanEncodeParseRoundTrip(t *testing.T) {
	p := samplePlan()
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 4 nested configProperty shape must appear.
	for _, want := range []string{
		"<deploymentPlan", `id="Central-AC"`, "<configProperty>",
		"<name>LB_Strategy</name>", "<kind>tk_string</kind>", "<string>PT</string>",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("encoded plan missing %q:\n%s", want, data)
		}
	}
	p2, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Name != p.Name || len(p2.Nodes) != 2 || len(p2.Instances) != 2 || len(p2.Connections) != 1 {
		t.Errorf("round trip = %+v", p2)
	}
	if got := p2.Instances[0].Attrs()["LB_Strategy"]; got != "PT" {
		t.Errorf("Attrs()[LB_Strategy] = %q, want PT", got)
	}
}

func TestPlanValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Plan)
	}{
		{"no name", func(p *Plan) { p.Name = "" }},
		{"duplicate node", func(p *Plan) { p.Nodes = append(p.Nodes, p.Nodes[0]) }},
		{"node missing address", func(p *Plan) { p.Nodes[0].Address = "" }},
		{"duplicate instance", func(p *Plan) { p.Instances = append(p.Instances, p.Instances[0]) }},
		{"instance on unknown node", func(p *Plan) { p.Instances[0].Node = "ghost" }},
		{"instance missing impl", func(p *Plan) { p.Instances[0].Implementation = "" }},
		{"connection empty type", func(p *Plan) { p.Connections[0].EventType = "" }},
		{"connection unknown node", func(p *Plan) { p.Connections[0].SinkNode = "ghost" }},
		{"connection self loop", func(p *Plan) { p.Connections[0].SinkNode = "app0" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := samplePlan()
			tt.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("Validate accepted broken plan")
			}
		})
	}
}

func TestPlanParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not xml at all <")); err == nil {
		t.Error("Parse accepted garbage")
	}
	if _, err := Parse([]byte("<deploymentPlan/>")); err == nil {
		t.Error("Parse accepted nameless plan")
	}
}

func TestPlanQueries(t *testing.T) {
	p := samplePlan()
	if _, ok := p.NodeByName("manager"); !ok {
		t.Error("NodeByName(manager) not found")
	}
	if _, ok := p.NodeByName("ghost"); ok {
		t.Error("NodeByName(ghost) found")
	}
	if got := p.InstancesOn("manager"); len(got) != 1 || got[0].ID != "Central-AC" {
		t.Errorf("InstancesOn(manager) = %+v", got)
	}
}
