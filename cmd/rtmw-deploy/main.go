// Command rtmw-deploy is the plan launcher (DAnCE's Plan Launcher +
// Execution Manager): it parses an XML deployment plan produced by
// rtmw-config and executes it against running rtmw-node daemons — install
// every component instance, apply its configProperty values through the
// Configurator path, wire the event-channel federation, and activate every
// node's container.
//
// Usage:
//
//	rtmw-deploy -plan plan.xml
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/deploy"
	"repro/internal/orb"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		planPath = flag.String("plan", "", "XML deployment plan")
		timeout  = flag.Duration("timeout", 30*time.Second, "overall deployment timeout")
	)
	flag.Parse()
	if *planPath == "" {
		return fmt.Errorf("missing -plan (see -help)")
	}
	data, err := os.ReadFile(*planPath)
	if err != nil {
		return err
	}
	plan, err := deploy.Parse(data)
	if err != nil {
		return err
	}

	o := orb.New("rtmw-deploy")
	defer o.Shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	d, err := plan.Deployment()
	if err != nil {
		return err
	}
	if _, err := deploy.NewLauncher(o).Execute(ctx, d); err != nil {
		return err
	}
	fmt.Printf("deployed plan %q: %d nodes, %d instances, %d connections\n",
		plan.Name, len(plan.Nodes), len(plan.Instances), len(plan.Connections))
	return nil
}
