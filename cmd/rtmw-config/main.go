// Command rtmw-config is the front-end configuration engine (paper Section
// 6): it reads a workload specification file and the developer's answers to
// the four application-characteristic questions, maps them to middleware
// strategies per Table 1 (rejecting invalid combinations), and writes the
// XML deployment plan for rtmw-deploy.
//
// Usage:
//
//	rtmw-config -workload plant.json \
//	    -job-skipping=false -replication=true -persistence=true -overhead=PT \
//	    -manager manager=127.0.0.1:7000 \
//	    -nodes app0=127.0.0.1:7001,app1=127.0.0.1:7002 \
//	    -out plan.xml
//
// Pass -config J_T_N to bypass the questionnaire with an explicit strategy
// tuple; the engine still validates it.
//
// The reconfigure subcommand swaps strategies on a RUNNING cluster without
// redeploying: it reads the executed plan, computes the reconfiguration
// delta to the target combination, and drives the epoch-versioned
// quiesce → swap → resume transaction over the ORB against the live nodes.
// No job is dropped; arrivals during the quiesce are decided under the new
// configuration.
//
//	rtmw-config reconfigure -plan plan.xml -config J_J_J [-out plan.xml]
//
// The health subcommand probes a RUNNING cluster: it pings every node's
// NodeManager over the ORB (the liveness view an operator gets before the
// in-cluster heartbeat detector would act) and reads the admission
// controller's current epoch and strategy combination off its
// reconfiguration facet. It exits non-zero when any node is down.
//
//	rtmw-config health -plan plan.xml
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/configengine"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/live"
	"repro/internal/orb"
	"repro/internal/spec"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "reconfigure" {
		if err := runReconfigure(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "health" {
		if err := runHealth(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// runHealth probes every node of an executed plan and reports the admission
// controller's epoch and configuration.
func runHealth(args []string) error {
	fs := flag.NewFlagSet("rtmw-config health", flag.ExitOnError)
	var (
		planPath = fs.String("plan", "", "executed deployment plan of the running cluster (XML)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-probe timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *planPath == "" {
		return fmt.Errorf("missing -plan (the XML plan the running cluster was deployed from)")
	}
	data, err := os.ReadFile(*planPath)
	if err != nil {
		return err
	}
	plan, err := deploy.Parse(data)
	if err != nil {
		return err
	}

	o := orb.New("rtmw-health")
	defer o.Shutdown()
	l := deploy.NewLauncher(o)
	down := 0
	fmt.Printf("%-12s %-6s %-22s %s\n", "node", "proc", "address", "status")
	for _, n := range plan.Nodes {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		err := l.Ping(ctx, n.Address)
		cancel()
		status := "up"
		if err != nil {
			status = "DOWN"
			down++
		}
		proc := fmt.Sprintf("%d", n.Processor)
		if n.Processor < 0 {
			proc = "mgr"
		}
		fmt.Printf("%-12s %-6s %-22s %s\n", n.Name, proc, n.Address, status)
	}

	// The AC's reconfiguration facet answers Epoch and Config on the node
	// hosting Central-AC.
	var manager deploy.Node
	for _, inst := range plan.Instances {
		if inst.Implementation == live.ImplAdmissionController {
			manager, _ = plan.NodeByName(inst.Node)
		}
	}
	if manager.Address == "" {
		return fmt.Errorf("plan has no admission controller instance")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if reply, err := o.Invoke(ctx, manager.Address, live.ReconfigServantKey, "Epoch", nil); err != nil {
		fmt.Printf("admission controller: UNREACHABLE (%v)\n", err)
		down++
	} else if epoch, err := strconv.ParseInt(string(reply), 10, 64); err != nil {
		return fmt.Errorf("decode epoch %q: %w", reply, err)
	} else {
		cfg := "unknown"
		if reply, err := o.Invoke(ctx, manager.Address, live.ReconfigServantKey, "Config", nil); err == nil {
			cfg = string(reply)
		}
		fmt.Printf("admission controller: epoch %d, configuration %s\n", epoch, cfg)
	}
	if down > 0 {
		return fmt.Errorf("%d probe(s) failed", down)
	}
	return nil
}

// runReconfigure executes the reconfigure subcommand against a running
// cluster.
func runReconfigure(args []string) error {
	fs := flag.NewFlagSet("rtmw-config reconfigure", flag.ExitOnError)
	var (
		planPath = fs.String("plan", "", "executed deployment plan of the running cluster (XML)")
		target   = fs.String("config", "", "target AC_IR_LB tuple (e.g. J_J_J)")
		out      = fs.String("out", "", "rewrite this plan file with the new configuration after a successful swap")
		timeout  = fs.Duration("timeout", 30*time.Second, "transaction timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *planPath == "" {
		return fmt.Errorf("missing -plan (the XML plan the running cluster was deployed from)")
	}
	if *target == "" {
		return fmt.Errorf("missing -config (target AC_IR_LB tuple)")
	}
	data, err := os.ReadFile(*planPath)
	if err != nil {
		return err
	}
	plan, err := deploy.Parse(data)
	if err != nil {
		return err
	}
	to, err := core.ParseConfig(*target)
	if err != nil {
		return fmt.Errorf("invalid -config: %w", err)
	}
	delta, err := configengine.ReconfigDelta(plan, to)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "reconfiguring %s: %s -> %s (%d instance updates, %d new routes)\n",
		plan.Name, delta.FromConfig, delta.ToConfig, len(delta.Updates), len(delta.Connections))

	o := orb.New("rtmw-reconfigure")
	defer o.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	outcome, err := deploy.NewLauncher(o).Execute(ctx, delta)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "entered epoch %d: quiesced %v, %d deferred arrivals replayed under %s\n",
		outcome.Epoch, outcome.QuiesceDuration.Round(time.Microsecond), outcome.Deferred, delta.ToConfig)
	for node, d := range outcome.NodeTimings {
		fmt.Fprintf(os.Stderr, "  %-10s swap %v\n", node, d.Round(time.Microsecond))
	}
	if *out != "" {
		delta.Apply(plan, outcome.Epoch)
		encoded, err := plan.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, encoded, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (now %s)\n", *out, delta.ToConfig)
	}
	return nil
}

func run() error {
	var (
		workloadPath = flag.String("workload", "", "workload specification file (JSON)")
		jobSkipping  = flag.Bool("job-skipping", false, "Q1: does your application allow job skipping?")
		replication  = flag.Bool("replication", true, "Q2: does your application have replicated components?")
		persistence  = flag.Bool("persistence", true, "Q3: does your application require state persistence?")
		overhead     = flag.String("overhead", "PT", "Q4: acceptable extra overhead (N, PT or PJ)")
		explicit     = flag.String("config", "", "explicit AC_IR_LB tuple, bypassing the questionnaire (e.g. J_T_N)")
		managerSpec  = flag.String("manager", "manager=127.0.0.1:7000", "task manager node as name=address")
		nodesSpec    = flag.String("nodes", "", "application nodes as name=address, comma separated, in processor order")
		out          = flag.String("out", "", "output plan file (default stdout)")
		planName     = flag.String("name", "rtmw", "deployment plan name")
	)
	flag.Parse()

	if *workloadPath == "" {
		return fmt.Errorf("missing -workload (see -help)")
	}
	data, err := os.ReadFile(*workloadPath)
	if err != nil {
		return err
	}
	w, err := spec.Parse(data)
	if err != nil {
		return err
	}

	var cfg core.Config
	if *explicit != "" {
		cfg, err = core.ParseConfig(*explicit)
		if err != nil {
			return fmt.Errorf("invalid -config: %w", err)
		}
		fmt.Fprintf(os.Stderr, "using explicit configuration %s\n", cfg)
	} else {
		tol, err := configengine.ParseTolerance(*overhead)
		if err != nil {
			return err
		}
		res := configengine.MapAnswers(configengine.Answers{
			JobSkipping:      *jobSkipping,
			Replication:      *replication,
			StatePersistence: *persistence,
			Overhead:         tol,
		})
		cfg = res.Config
		fmt.Fprintf(os.Stderr, "selected configuration %s:\n", cfg)
		for _, note := range res.Notes {
			fmt.Fprintf(os.Stderr, "  - %s\n", note)
		}
	}

	manager, err := parseNode(*managerSpec, -1)
	if err != nil {
		return err
	}
	var apps []deploy.Node
	if *nodesSpec == "" {
		return fmt.Errorf("missing -nodes (one name=address per application processor)")
	}
	for i, part := range strings.Split(*nodesSpec, ",") {
		n, err := parseNode(strings.TrimSpace(part), i)
		if err != nil {
			return err
		}
		apps = append(apps, n)
	}

	plan, err := configengine.GeneratePlan(*planName, w, cfg, manager, apps)
	if err != nil {
		return err
	}
	encoded, err := plan.Encode()
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(encoded)
		return err
	}
	if err := os.WriteFile(*out, encoded, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d instances, %d connections)\n", *out, len(plan.Instances), len(plan.Connections))
	return nil
}

// parseNode reads a "name=address" declaration.
func parseNode(s string, proc int) (deploy.Node, error) {
	name, addr, ok := strings.Cut(s, "=")
	if !ok || name == "" || addr == "" {
		return deploy.Node{}, fmt.Errorf("bad node declaration %q (want name=address)", s)
	}
	return deploy.Node{Name: name, Address: addr, Processor: proc}, nil
}
