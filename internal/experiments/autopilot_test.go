package experiments

import (
	"testing"
)

// TestRunAutopilotBeatsStatics is the tentpole acceptance test: on every
// regime-change scenario the controller must post a strictly lower
// deadline-miss rate than each of the 15 static combinations, with zero
// admitted-job loss, clean ledger audits and bounded actuations.
func TestRunAutopilotBeatsStatics(t *testing.T) {
	rep, err := RunAutopilot(AutopilotOptions{})
	if err != nil {
		t.Fatalf("RunAutopilot: %v", err)
	}
	if len(rep.Scenarios) != 3 {
		t.Fatalf("expected 3 scenarios, got %d", len(rep.Scenarios))
	}
	beaten := 0
	for _, sc := range rep.Scenarios {
		if len(sc.Static) != 15 {
			t.Errorf("%s: expected 15 static rows, got %d", sc.Scenario, len(sc.Static))
		}
		for _, r := range sc.Autopilot {
			if !r.Passed {
				t.Errorf("%s (%s): autopilot run failed invariants: %v", sc.Scenario, r.Binding, r.Violations)
			}
			if r.Lost != 0 {
				t.Errorf("%s (%s): %d admitted jobs lost", sc.Scenario, r.Binding, r.Lost)
			}
			if !r.LedgerClean {
				t.Errorf("%s (%s): ledger audit failed", sc.Scenario, r.Binding)
			}
			if r.Actuations == 0 {
				t.Errorf("%s (%s): controller never actuated", sc.Scenario, r.Binding)
			}
		}
		if sc.Beaten {
			beaten++
		} else {
			t.Logf("%s: autopilot %.4f vs best static %s %.4f (not beaten)",
				sc.Scenario, sc.AutopilotMiss, sc.BestStatic, sc.BestStaticMiss)
		}
	}
	if beaten < 2 {
		t.Errorf("autopilot beat every static on %d scenarios, need >= 2\n%s", beaten, tableOf(rep))
	}
	if !rep.Passed() {
		t.Errorf("Passed = false\n%s", tableOf(rep))
	}
}

// TestRunAutopilotScenarioFilter checks the name filter and its unknown-name
// rejection.
func TestRunAutopilotScenarioFilter(t *testing.T) {
	rep, err := RunAutopilot(AutopilotOptions{Scenarios: []string{"autopilot-flash-crowd"}})
	if err != nil {
		t.Fatalf("RunAutopilot: %v", err)
	}
	if len(rep.Scenarios) != 1 || rep.Scenarios[0].Scenario != "autopilot-flash-crowd" {
		t.Fatalf("filter returned wrong scenarios: %+v", rep.Scenarios)
	}
	if _, err := RunAutopilot(AutopilotOptions{Scenarios: []string{"no-such"}}); err == nil {
		t.Fatal("expected error for unknown scenario name")
	}
}
