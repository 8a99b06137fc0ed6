// Package e2e tests the released command-line pipeline end to end, as a
// user would run it: rtmw-node daemons as separate OS processes, rtmw-config
// generating the XML plan from questionnaire answers, and rtmw-deploy
// executing the plan over the network.
package e2e

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/orb"
)

const e2eWorkload = `{
  "name": "e2e",
  "processors": 2,
  "tasks": [
    {"id": "flow", "kind": "periodic", "period": "100ms", "deadline": "100ms",
     "subtasks": [
       {"exec": "5ms", "processor": 0, "replicas": [1]},
       {"exec": "4ms", "processor": 1}
     ]},
    {"id": "alert", "kind": "aperiodic", "deadline": "80ms",
     "subtasks": [{"exec": "3ms", "processor": 1}]}
  ]
}`

// buildBinaries compiles the three tools into dir.
func buildBinaries(t *testing.T, dir string) {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", dir,
		"repro/cmd/rtmw-node", "repro/cmd/rtmw-config", "repro/cmd/rtmw-deploy")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
}

// repoRoot locates the module root from the test binary's working directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// startNode launches one rtmw-node process and returns its bound address.
func startNode(t *testing.T, bin, name string, proc int) string {
	t.Helper()
	cmd := exec.Command(bin, "-name", name, "-proc", fmt.Sprint(proc), "-listen", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})

	// The daemon prints "rtmw-node NAME (processor P) listening on ADDR".
	scanner := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for scanner.Scan() {
			line := scanner.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addrCh <- strings.TrimSpace(line[i+len("listening on "):])
				break
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return addr
	case <-time.After(10 * time.Second):
		t.Fatalf("node %s never reported its address", name)
		return ""
	}
}

func TestCommandPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process pipeline in -short mode")
	}
	dir := t.TempDir()
	buildBinaries(t, dir)

	managerAddr := startNode(t, filepath.Join(dir, "rtmw-node"), "manager", -1)
	app0Addr := startNode(t, filepath.Join(dir, "rtmw-node"), "app0", 0)
	app1Addr := startNode(t, filepath.Join(dir, "rtmw-node"), "app1", 1)

	workloadPath := filepath.Join(dir, "workload.json")
	if err := os.WriteFile(workloadPath, []byte(e2eWorkload), 0o644); err != nil {
		t.Fatal(err)
	}
	planPath := filepath.Join(dir, "plan.xml")

	// Configuration engine: answers → strategies → XML plan.
	cfgCmd := exec.Command(filepath.Join(dir, "rtmw-config"),
		"-workload", workloadPath,
		"-job-skipping=true", "-replication=true", "-persistence=false", "-overhead=PJ",
		"-manager", "manager="+managerAddr,
		"-nodes", "app0="+app0Addr+",app1="+app1Addr,
		"-out", planPath,
	)
	var cfgErr bytes.Buffer
	cfgCmd.Stderr = &cfgErr
	if err := cfgCmd.Run(); err != nil {
		t.Fatalf("rtmw-config: %v\n%s", err, cfgErr.String())
	}
	if !strings.Contains(cfgErr.String(), "J_J_J") {
		t.Errorf("rtmw-config did not report the J_J_J selection:\n%s", cfgErr.String())
	}
	planData, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Central-AC", "tk_string", "TaskArrive"} {
		if !strings.Contains(string(planData), want) {
			t.Errorf("plan missing %q", want)
		}
	}

	// Plan launcher: deploy against the live daemons.
	depCmd := exec.Command(filepath.Join(dir, "rtmw-deploy"), "-plan", planPath)
	out, err := depCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("rtmw-deploy: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "deployed plan") {
		t.Errorf("rtmw-deploy output unexpected:\n%s", out)
	}

	// The deployed load balancer's Location facet answers over the ORB:
	// proof that components were installed, configured and activated in the
	// daemon processes.
	client := orb.New("e2e-client")
	defer client.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := client.Invoke(ctx, managerAddr, "lb", "Location", []byte("flow"))
	if err != nil {
		t.Fatalf("Location facet: %v", err)
	}
	if loc, err := live.DecodeAccept(reply); err != nil || len(loc.Placement) == 0 {
		t.Errorf("Location facet replied %+v, err %v; want a placement", loc, err)
	}

	// Live reconfiguration against the running daemons: swap J_J_J → J_T_N
	// through the two-phase transaction, rewriting the plan file in place.
	recCmd := exec.Command(filepath.Join(dir, "rtmw-config"), "reconfigure",
		"-plan", planPath, "-config", "J_T_N", "-out", planPath)
	recOut, err := recCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("rtmw-config reconfigure: %v\n%s", err, recOut)
	}
	if !strings.Contains(string(recOut), "entered epoch 1") {
		t.Errorf("reconfigure output missing epoch:\n%s", recOut)
	}
	// The manager's coordination facet reports the new combination.
	cfgReply, err := client.Invoke(ctx, managerAddr, "reconfig", "Config", nil)
	if err != nil {
		t.Fatalf("Config facet: %v", err)
	}
	if string(cfgReply) != "J_T_N" {
		t.Errorf("running config = %s, want J_T_N", cfgReply)
	}
	// The rewritten plan reads back the new combination too.
	updated, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(updated), "IR_Strategy") {
		t.Error("rewritten plan lost strategy properties")
	}

	// A contradictory target is refused and leaves the running config.
	badCmd := exec.Command(filepath.Join(dir, "rtmw-config"), "reconfigure",
		"-plan", planPath, "-config", "T_J_N")
	if out, err := badCmd.CombinedOutput(); err == nil {
		t.Errorf("contradictory reconfigure succeeded:\n%s", out)
	}
	cfgReply, err = client.Invoke(ctx, managerAddr, "reconfig", "Config", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(cfgReply) != "J_T_N" {
		t.Errorf("config disturbed by rejected target: %s", cfgReply)
	}
}
