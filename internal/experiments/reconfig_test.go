package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestRunReconfigZeroLoss(t *testing.T) {
	opts := ReconfigOptions{Sets: 3, Horizon: 30 * time.Second, Workers: 2}
	results, err := RunReconfig(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Lost != 0 {
			t.Errorf("set %d lost %d admitted jobs", r.Set, r.Lost)
		}
		if r.Report().Epoch != 1 {
			t.Errorf("set %d epoch = %d", r.Set, r.Report().Epoch)
		}
		if r.Report().From.String() != "T_N_N" || r.Report().To.String() != "J_J_J" {
			t.Errorf("set %d combos = %s -> %s", r.Set, r.Report().From, r.Report().To)
		}
		if r.Report().Quiesce <= 0 {
			t.Errorf("set %d quiesce = %v", r.Set, r.Report().Quiesce)
		}
		if r.Released == 0 || r.Ratio <= 0 {
			t.Errorf("set %d inert: %+v", r.Set, r)
		}
	}

	var table strings.Builder
	writeReconfig(&table, "title", results)
	if !strings.Contains(table.String(), "title") || !strings.Contains(table.String(), "T_N_N") {
		t.Errorf("table = %q", table.String())
	}
}

func TestRunReconfigRejectsInvalid(t *testing.T) {
	if _, err := RunReconfig(ReconfigOptions{
		To: core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerJob, LB: core.StrategyNone},
	}); err == nil {
		t.Error("contradictory target accepted")
	}
}
