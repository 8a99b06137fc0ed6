package experiments

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestScaleSweepSmall checks the sweep's accounting on a small point: jobs
// flow, events fire, and released ≤ arrived.
func TestScaleSweepSmall(t *testing.T) {
	res, err := RunScale(ScaleOptions{
		Points:  []ScalePoint{{Procs: 5, Tasks: 100}},
		Horizon: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	r := res[0]
	if r.Jobs == 0 {
		t.Error("no jobs arrived")
	}
	if r.Released > r.Jobs {
		t.Errorf("released %d > arrived %d", r.Released, r.Jobs)
	}
	if r.Completed != r.Released {
		t.Errorf("completed %d != released %d after drain", r.Completed, r.Released)
	}
	if r.Events <= r.Jobs {
		t.Errorf("events %d should exceed jobs %d", r.Events, r.Jobs)
	}
	if r.Ratio < 0 || r.Ratio > 1 {
		t.Errorf("ratio %g out of range", r.Ratio)
	}
}

// TestScaleSweepDeterministic: equal options produce identical virtual
// outcomes (wall-clock fields differ, virtual accounting must not).
func TestScaleSweepDeterministic(t *testing.T) {
	opts := ScaleOptions{
		Points:  []ScalePoint{{Procs: 10, Tasks: 500}},
		Horizon: time.Second,
		Combo:   core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerTask, LB: core.StrategyPerJob},
	}
	a, err := RunScale(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScale(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Jobs != b[0].Jobs || a[0].Released != b[0].Released || a[0].Events != b[0].Events || a[0].Ratio != b[0].Ratio {
		t.Errorf("same options diverged: %+v vs %+v", a[0], b[0])
	}
}

// TestScaleSweep200x50k is the large-scenario regime of the sweep — 200
// processors, 50k tasks, tens of thousands of jobs — the "simulate at scale
// what the testbed couldn't" configuration. It runs in CI's race job too
// (the whole sim is single-goroutine, so this doubles as a race audit of the
// pooled engine under a heavy event load), and the post-run ledger audit
// inside SimSystem.Run re-verifies every admission index at population
// sizes the unit tests never reach.
func TestScaleSweep200x50k(t *testing.T) {
	if testing.Short() {
		t.Skip("large scale point; skipped with -short")
	}
	res, err := RunScale(ScaleOptions{
		Points:  []ScalePoint{{Procs: 200, Tasks: 50_000}},
		Horizon: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Jobs < 10_000 {
		t.Errorf("only %d jobs arrived; want a large-scenario load (≥10000)", r.Jobs)
	}
	if r.Completed != r.Released {
		t.Errorf("completed %d != released %d after drain", r.Completed, r.Released)
	}
	t.Logf("200x50k: %d jobs, %d events, %.0f jobs/sec, %.0f events/sec",
		r.Jobs, r.Events, r.JobsPerSec, r.EventsPerSec)
}

// TestParseScalePoints covers the CLI's point-list syntax.
func TestParseScalePoints(t *testing.T) {
	pts, err := ParseScalePoints("5x100, 50x10000,200x50000")
	if err != nil {
		t.Fatal(err)
	}
	want := []ScalePoint{{5, 100}, {50, 10_000}, {200, 50_000}}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("point %d = %+v, want %+v", i, pts[i], want[i])
		}
	}
	if _, err := ParseScalePoints("bogus"); err == nil {
		t.Error("accepted malformed point list")
	}
	if _, err := ParseScalePoints("0x10"); err == nil {
		t.Error("accepted non-positive processor count")
	}
	if pts, err := ParseScalePoints("  "); err != nil || pts != nil {
		t.Errorf("blank list should be (nil, nil), got (%v, %v)", pts, err)
	}
}

// TestScaleReportsAllocation holds the sweep to reporting what a request
// allocates at the sim-sweep platform size, in its table and its JSON.
func TestScaleReportsAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 10 000-task simulation")
	}
	res, err := RunScale(ScaleOptions{Points: []ScalePoint{{Procs: 50, Tasks: 10000}}, Horizon: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].AllocBytes == 0 {
		t.Errorf("alloc_bytes is 0 at 50x10000: %+v", res[0])
	}
	doc, err := json.Marshal(res[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"alloc_bytes":`, `"gc_cycles":`} {
		if !strings.Contains(string(doc), key) {
			t.Errorf("scale JSON %s lacks %s", doc, key)
		}
	}
	var table strings.Builder
	writeScale(&table, "scale", res)
	if !strings.Contains(table.String(), "alloc bytes") {
		t.Errorf("scale table lacks the allocation column:\n%s", table.String())
	}
	t.Logf("50x10000: %d bytes, %d collector cycles", res[0].AllocBytes, res[0].GCCycles)
}
