package main

import "time"

const workloadGenerations = 5

// probeWorkload measures task-set generation at the sweep's size: what every
// simulated experiment pays before its first event.
func probeWorkload(s simSpec, seed int64, div int) (metrics, error) {
	n := max(workloadGenerations/div, 1)
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := s.simTasks(seed + int64(i)); err != nil {
			return nil, err
		}
		samples = append(samples, ms(time.Since(t0)))
	}
	return metrics{"workload.generate_ms": median(samples)}, nil
}
