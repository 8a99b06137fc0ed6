package main

import (
	"fmt"
	"time"

	"repro/internal/configengine"
	"repro/internal/core"
	"repro/internal/deploy"
)

const planGenerations = 50

// probeConfigEngine measures deployment-plan generation for the common live
// task set: the configuration engine's share of set-up and of every
// reconfiguration delta.
func probeConfigEngine(div int) (metrics, error) {
	n := max(planGenerations/div, 1)
	wl, _ := liveSpecs["live-steady"].workload()
	cfg, err := core.ParseConfig("J_J_J")
	if err != nil {
		return nil, err
	}
	manager := deploy.Node{Name: "manager", Address: "127.0.0.1:1", Processor: -1}
	apps := make([]deploy.Node, liveProcs)
	for i := range apps {
		apps[i] = deploy.Node{Name: fmt.Sprintf("app%d", i), Address: fmt.Sprintf("127.0.0.1:%d", 2+i), Processor: i}
	}
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := configengine.GeneratePlan("probe", wl, cfg, manager, apps); err != nil {
			return nil, fmt.Errorf("probe configengine: %w", err)
		}
		samples = append(samples, ms(time.Since(t0)))
	}
	return metrics{"configengine.generate_plan_ms": median(samples)}, nil
}
