// Command rtmw-node runs one middleware node: an ORB endpoint, a federated
// event channel, an executor, an empty component container, and the
// NodeManager deployment servant. Both application processors and the
// central task manager run this daemon; the deployment plan decides which
// components each node hosts.
//
// Usage:
//
//	rtmw-node -name app0 -proc 0 -listen 127.0.0.1:7001
//	rtmw-node -name manager -proc -1 -listen 127.0.0.1:7000
//
// The process serves until interrupted.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/ccm"
	"repro/internal/deploy"
	"repro/internal/live"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		name      = flag.String("name", "node", "node name")
		proc      = flag.Int("proc", 0, "application processor index (-1 for the task manager)")
		listen    = flag.String("listen", "127.0.0.1:0", "ORB listen address")
		execScale = flag.Float64("execscale", 1.0, "subtask execution time multiplier")
	)
	flag.Parse()

	node, err := live.NewNode(*name, *proc, *listen, *execScale)
	if err != nil {
		return err
	}
	registry := ccm.NewRegistry()
	if err := live.Register(registry); err != nil {
		return err
	}
	deploy.NewNodeManager(node.ORB, registry, node.Container, node.Channel)

	fmt.Printf("rtmw-node %s (processor %d) listening on %s\n", *name, *proc, node.Addr)
	fmt.Println("waiting for deployment; press Ctrl-C to stop")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	fmt.Println("shutting down")
	ts := node.TransportStats()
	fmt.Printf("transport: %d frames in %d flushes (%.1f frames/flush), %d bytes, %d inbound frames dropped; %d events pushed, %d forwarded (%d failed)\n",
		ts.ORB.FramesSent, ts.ORB.Flushes, framesPerFlush(ts.ORB.FramesSent, ts.ORB.Flushes),
		ts.ORB.BytesSent, ts.ORB.FramesDropped,
		ts.Events.Pushed, ts.Events.Forwarded, ts.Events.ForwardErrors)
	return node.Close()
}

// framesPerFlush guards the batching-factor division.
func framesPerFlush(frames, flushes int64) float64 {
	if flushes == 0 {
		return 0
	}
	return float64(frames) / float64(flushes)
}
