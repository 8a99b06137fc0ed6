package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeSize shrinks everything so that each workload's every code path runs
// in a fraction of a second.
var smokeSize = sizing{
	extraSetups: 1,
	warmup:      16,
	sweepProcs:  5, sweepTasks: 200, sweepHorizon: 100 * time.Millisecond,
	probeDiv:     200,
	standInChurn: 450 * time.Millisecond,
	standInSim:   simSpec{procs: 5, tasks: 100, horizon: time.Second, combos: standInCombos(), minPasses: 1},
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The declaration in decl.go and BENCHMARK.json must say the same thing, and
// stay inside the driver's limits.
func TestDeclarationMatchesJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", b.Workloads, workloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	for _, w := range b.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricDecl(nil), b.EndToEnd...), b.PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 || m.Unit == "" || (m.Better != lower && m.Better != higher) {
			t.Errorf("bad metric declaration %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// sizeIndependent drops the two findings that only full-size runs can avoid:
// half a second neither fills live-overload's ledger nor saturates the
// simulated platform, so nothing is refused yet.
func sizeIndependent(violations []string) []string {
	var out []string
	for _, v := range violations {
		if !strings.HasPrefix(v, "accepted share") && !strings.HasPrefix(v, "accepted-utilization ratios") {
			out = append(out, v)
		}
	}
	return out
}

func names(list []metricDecl) []string {
	out := make([]string, len(list))
	for i, m := range list {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload for about half a second at reduced size,
// untraced and traced, and checks that each run is correct, that it emits
// exactly the declared metric names, and that every value carries its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				rep, err := runOne(smokeSize, w.Name, 1, 0.5, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if bad := sizeIndependent(rep.violations); rep.failed != 0 || len(bad) != 0 {
					t.Errorf("traced=%v: failed %d, violations %q", traced, rep.failed, bad)
				}
				want := names(endToEnd)
				if traced {
					want = names(perLayer)
				}
				line := rep.line()
				if got := sortedKeys(line.Metrics); !reflect.DeepEqual(got, want) {
					t.Errorf("traced=%v: metric names\n got  %v\n want %v", traced, got, want)
				}
				for name, v := range line.Metrics {
					if v.Unit == "" || v.Unit != unitOf(name) {
						t.Errorf("%s: unit %q", name, v.Unit)
					}
				}
				if line.Attempted < 1 {
					t.Errorf("traced=%v: attempted %d", traced, line.Attempted)
				}
			}
		})
	}
}
