package deploy_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/configengine"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/live"
	"repro/internal/orb"
	"repro/internal/spec"
)

// TestLauncherCallSequence pins every message the launcher sends, as (node,
// operation, instance or route) in order, for an initial deployment, each
// reconfiguration delta kind — a strategy swap, added tasks, removed tasks,
// a failover — and a node's redeployment. Recording node managers stand in
// for the nodes and record what they decode; the manager's reconfiguration
// facet answers Quiesce with a rising epoch. The golden file was recorded
// from the three executors this one replaced (Execute over a plan,
// ExecuteReconfig, RedeployNode), so one executor sends what they sent.
func TestLauncherCallSequence(t *testing.T) {
	var (
		mu     sync.Mutex
		calls  []string
		epoch  int64
		nameOf = map[string]string{}
	)
	record := func(node string) orb.Handler {
		return func(op string, arg []byte) ([]byte, error) {
			line := node + " " + op
			var reply []byte
			switch op {
			case "Install":
				req, err := deploy.DecodeInstall(arg)
				if err != nil {
					return nil, err
				}
				line += " " + req.ID
			case "Reconfigure":
				req, err := deploy.DecodeReconfig(arg)
				if err != nil {
					return nil, err
				}
				line += " " + req.ID + " epoch=" + req.Attrs[live.AttrEpoch]
			case "Connect":
				req, err := deploy.DecodeConnect(arg)
				if err != nil {
					return nil, err
				}
				line += fmt.Sprintf(" %s->%s/%d", req.EventType, nameOf[req.SinkAddr], req.SinkProc)
			case "Resume":
				reply = []byte("0")
			}
			mu.Lock()
			defer mu.Unlock()
			if op == "Quiesce" {
				epoch++
				reply = strconv.AppendInt(nil, epoch, 10)
			}
			calls = append(calls, line)
			return reply, nil
		}
	}
	var nodes []deploy.Node
	for i, name := range []string{"manager", "app0", "app1"} {
		o := orb.New(name)
		addr, err := o.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(o.Shutdown)
		o.RegisterServant(deploy.NodeManagerKey, record(name))
		o.RegisterServant(live.ReconfigServantKey, record(name))
		nameOf[addr.String()] = name
		nodes = append(nodes, deploy.Node{Name: name, Address: addr.String(), Processor: i - 1})
	}

	w, err := spec.Parse([]byte(`{"name": "seq", "processors": 2, "tasks": [
	  {"id": "flow", "kind": "periodic", "period": "1s", "deadline": "1s",
	   "subtasks": [{"exec": "50ms", "processor": 0, "replicas": [1]}, {"exec": "30ms", "processor": 1}]},
	  {"id": "alert", "kind": "aperiodic", "deadline": "400ms", "subtasks": [{"exec": "20ms", "processor": 1}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	extra, err := spec.Parse([]byte(`{"name": "x", "processors": 2, "tasks": [
	  {"id": "extra", "kind": "aperiodic", "deadline": "500ms",
	   "subtasks": [{"exec": "10ms", "processor": 1}, {"exec": "10ms", "processor": 0, "replicas": [1]}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	added, err := extra.SchedTasks()
	if err != nil {
		t.Fatal(err)
	}
	p, err := configengine.GeneratePlan("seq", w, core.Config{AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyNone}, nodes[0], nodes[1:])
	if err != nil {
		t.Fatal(err)
	}
	launcher := orb.New("launcher")
	t.Cleanup(launcher.Shutdown)
	l := deploy.NewLauncher(launcher)

	var got strings.Builder
	// step executes one delta, folds a reconfiguration into the plan, and
	// writes down what the nodes received.
	step := func(name string, d *deploy.Delta, err error) {
		t.Helper()
		var out *deploy.ReconfigOutcome
		if err == nil {
			out, err = l.Execute(context.Background(), d)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.ManagerNode != "" {
			d.Apply(p, out.Epoch)
		}
		mu.Lock()
		fmt.Fprintf(&got, "# %s\n%s\n", name, strings.Join(calls, "\n"))
		calls = calls[:0]
		mu.Unlock()
	}
	d, err := p.Deployment()
	step("deploy", d, err)
	d, err = configengine.ReconfigDelta(p, core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob})
	step("strategy swap", d, err)
	d, err = configengine.AddTasksDelta(p, added)
	step("add tasks", d, err)
	d, err = configengine.RemoveTasksDelta(p, []string{"alert"})
	step("remove tasks", d, err)
	d, _, err = configengine.FailoverDelta(p, 0)
	step("failover", d, err)
	d, err = p.Redeployment("app0")
	step("redeploy", d, err)

	want, err := os.ReadFile("testdata/launcher-calls.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("launcher call sequence changed:\n%s\nwant:\n%s", got.String(), want)
	}
}
