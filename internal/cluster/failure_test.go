package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/ccm"
	"repro/internal/configengine"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/live"
	"repro/internal/orb"
)

// TestDeployToDeadNodeFails verifies the launcher reports an unreachable
// node instead of partially deploying.
func TestDeployToDeadNodeFails(t *testing.T) {
	w := miniWorkload(t)
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyNone}

	// One real node, one dead address.
	node, err := live.NewNode("app0", 0, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	reg := ccm.NewRegistry()
	if err := live.Register(reg); err != nil {
		t.Fatal(err)
	}
	deploy.NewNodeManager(node.ORB, reg, node.Container, node.Channel)

	plan, err := configengine.GeneratePlan("doomed", w, cfg,
		deploy.Node{Name: "manager", Address: "127.0.0.1:1", Processor: -1}, // dead
		[]deploy.Node{
			{Name: "app0", Address: node.Addr, Processor: 0},
			{Name: "app1", Address: "127.0.0.1:1", Processor: 1}, // dead
		})
	if err != nil {
		t.Fatal(err)
	}
	launcher := orb.New("test-launcher")
	defer launcher.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d, err := plan.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	if _, err = deploy.NewLauncher(launcher).Execute(ctx, d); err == nil {
		t.Fatal("deployment to dead nodes succeeded")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("error = %v, want unreachable-node report", err)
	}
	// The surviving node must not have been touched.
	if ids := node.Container.InstanceIDs(); len(ids) != 0 {
		t.Errorf("partial install on surviving node: %v", ids)
	}
}

// TestClusterSurvivesAppNodeLoss kills one application node mid-run and
// checks the rest of the system keeps admitting and completing jobs homed on
// surviving nodes.
func TestClusterSurvivesAppNodeLoss(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyNone}
	c := startCluster(t, cfg)
	if err := c.StartDrivers(1.0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)

	// Kill application node 0 (home of "flow"). The drivers for that node
	// will fail; node 1's "alert" task must keep flowing.
	te1, err := c.TE(1)
	if err != nil {
		t.Fatal(err)
	}
	before := te1.StatsSnapshot().Released
	_ = c.Apps[0].Close()

	time.Sleep(500 * time.Millisecond)
	c.StopDrivers()

	after := te1.StatsSnapshot().Released
	if after <= before {
		t.Errorf("no releases on surviving node after failure (before %d, after %d)", before, after)
	}
	// The admission controller is still alive and its ledger consistent.
	ac, err := c.AC()
	if err != nil {
		t.Fatal(err)
	}
	if err := ac.AuditLedger(); err != nil {
		t.Error(err)
	}
}

// TestTaskEffectorSurvivesManagerLoss verifies that arrivals during a
// manager outage fail with an error (the push cannot be delivered) without
// wedging the effector, and that local state stays consistent.
func TestTaskEffectorSurvivesManagerLoss(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyNone}
	c := startCluster(t, cfg)

	te1, err := c.TE(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := te1.SubmitJob("alert"); err != nil {
		t.Fatalf("baseline arrival failed: %v", err)
	}

	_ = c.Manager.Close()
	// A one-way push racing the connection teardown may still land in the
	// OS buffer and "succeed"; once the reset arrives the pooled connection
	// is dead and the redial must fail. Retry until the outage is observed,
	// bounded so a wedged effector still fails the test.
	deadline := time.Now().Add(10 * time.Second)
	sawError := false
	arrivals := int64(1)
	for time.Now().Before(deadline) {
		done := make(chan error, 1)
		go func() {
			_, err := te1.SubmitJob("alert")
			done <- err
		}()
		select {
		case err := <-done:
			arrivals++
			if err != nil {
				sawError = true
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Arrive wedged during manager outage")
		}
		if sawError {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !sawError {
		t.Error("arrivals never reported the manager outage")
	}
	// The effector still counts every arrival and remains usable.
	if got := te1.StatsSnapshot().Arrived; got != arrivals {
		t.Errorf("Arrived = %d, want %d", got, arrivals)
	}
}
