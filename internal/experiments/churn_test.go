package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestChurnSweepSmall runs a compressed churn sweep and pins the open-world
// guarantees the experiment exists to prove: tasks joined and left mid-run,
// no admitted job was lost, and the watch stream stayed ordered.
func TestChurnSweepSmall(t *testing.T) {
	opts := ChurnOptions{Sets: 1, Horizon: 15 * time.Second, Workers: 0}
	results, err := RunChurn(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3 default combos", len(results))
	}
	for _, r := range results {
		if r.TasksAdded == 0 || r.TasksRemoved == 0 {
			t.Errorf("%s set %d: no churn happened: %+v", r.Combo, r.Set, r)
		}
		if r.Lost != 0 {
			t.Errorf("%s set %d: lost %d admitted jobs", r.Combo, r.Set, r.Lost)
		}
		if !r.WatchOrdered {
			t.Errorf("%s set %d: watch stream out of order", r.Combo, r.Set)
		}
		if r.BatchSubmitted == 0 {
			t.Errorf("%s set %d: no batch submissions", r.Combo, r.Set)
		}
		if len(r.Violations) != 0 {
			t.Errorf("%s set %d: invariants violated: %v", r.Combo, r.Set, r.Violations)
		}
	}
	table := tableOf(&ChurnReport{title: "churn", Results: results})
	if !strings.Contains(table, "T_N_N") || !strings.Contains(table, "J_J_J") {
		t.Errorf("table missing combos:\n%s", table)
	}
}

// TestChurnLiveSmoke runs the real-transport churn smoke: tenants cycle
// through a live cluster under the quiesce protocol with zero job loss and
// a clean post-run ledger.
func TestChurnLiveSmoke(t *testing.T) {
	res, err := RunChurnLive()
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 {
		t.Errorf("lost %d admitted jobs", res.Lost)
	}
	if !res.LedgerClean {
		t.Error("ledger audit failed after live churn")
	}
	// One epoch per lifecycle delta: liveTenants adds + liveTenants removals.
	if res.Epoch != 4 {
		t.Errorf("final epoch = %d, want 4", res.Epoch)
	}
	if res.WatchEvents == 0 {
		t.Error("live watch stream observed nothing")
	}
	if len(res.Violations) != 0 {
		t.Errorf("invariants violated: %v", res.Violations)
	}
	if res.Config != "T_T_T" {
		t.Errorf("default live config = %s", res.Config)
	}
}
