package autopilot

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// warmAutopilot builds a controller over 16 tasks and ingests 1024
// prebuilt events once, which registers every task estimator (the one cold
// allocation per task), so what follows measures the steady state.
func warmAutopilot(tb testing.TB, opts Options) (*Autopilot, []core.WatchEvent) {
	const tasks = 16
	ap, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	events := make([]core.WatchEvent, 1024)
	for i := range events {
		kind := core.WatchAdmitted
		switch i % 8 {
		case 5:
			kind = core.WatchRejected
		case 6:
			kind = core.WatchCompleted
		case 7:
			kind = core.WatchDeadlineMiss
		}
		events[i] = core.WatchEvent{
			Kind: kind,
			Task: fmt.Sprintf("t%d", i%tasks),
			Job:  int64(i),
			At:   time.Duration(i) * 100 * time.Microsecond,
		}
	}
	for _, ev := range events {
		ap.ingest(ev)
	}
	return ap, events
}

// warmTickAutopilot is warmAutopilot with every regime trigger disabled and
// the active config parked at the calm target: a tick then summarizes and
// classifies without actuating (there is no binding attached).
func warmTickAutopilot(tb testing.TB) (*Autopilot, []core.WatchEvent) {
	ap, events := warmAutopilot(tb, Options{
		MissHigh: 2, RejectHigh: 2,
		BurstEnter: 1000, BurstExit: 999,
	})
	ap.active = ap.opts.Calm
	return ap, events
}

// BenchmarkAutopilot measures the controller's two hot paths: per-Watch-event
// estimator ingest (runs once per job lifecycle event) and one decision tick
// (window summary + change detector + classification; runs once per Tick).
// TestAutopilotHotPathsAllocFree holds both at 0 allocations.
func BenchmarkAutopilot(b *testing.B) {
	b.Run("ingest", func(b *testing.B) {
		ap, events := warmAutopilot(b, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ap.ingest(events[i%len(events)])
		}
	})

	b.Run("tick", func(b *testing.B) {
		ap, events := warmTickAutopilot(b)
		horizon := events[len(events)-1].At
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ap.tick(horizon + time.Duration(i)*ap.opts.Tick)
		}
	})
}
