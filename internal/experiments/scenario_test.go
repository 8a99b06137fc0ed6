package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
	wspec "repro/internal/spec"
)

func miniScenario() *scenario.Spec {
	fig := 0
	return &scenario.Spec{
		Name:     "exp-mini",
		Config:   "T_T_T",
		Horizon:  wspec.Duration(5_000_000_000),
		Seed:     7,
		Workload: scenario.WorkloadRef{Figure5: &fig},
		Arrivals: []scenario.ArrivalBlock{
			{Tasks: []string{"A0"}, Shape: scenario.ShapeSpec{Kind: "constant", Rate: 5}},
		},
		Invariants: &scenario.Invariants{
			ZeroAdmittedLoss: true,
			LedgerAudit:      true,
			WatchOrdering:    true,
		},
	}
}

// RunScenario orchestrates binding selection, recording, and rendering.
func TestRunScenarioSim(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	rep, err := RunScenario(ScenarioOptions{
		Spec:       miniScenario(),
		Bindings:   []string{scenario.BindingSim},
		RecordPath: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() || len(rep.Results) != 1 {
		t.Fatalf("unexpected report: passed=%v results=%d", rep.Passed(), len(rep.Results))
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("journal not written: %v", err)
	}
	if _, err := scenario.DecodeJournal(data); err != nil {
		t.Fatalf("recorded journal invalid: %v", err)
	}

	table := tableOf(rep)
	if !strings.Contains(table, "exp-mini") || !strings.Contains(table, "PASS") {
		t.Fatalf("table missing content:\n%s", table)
	}
	doc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Experiment string `json:"experiment"`
		Passed     bool   `json:"passed"`
		Results    []struct {
			Binding string `json:"binding"`
		} `json:"results"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("JSON output invalid: %v", err)
	}
	if parsed.Experiment != "scenario" || !parsed.Passed || len(parsed.Results) != 1 || parsed.Results[0].Binding != "sim" {
		t.Fatalf("JSON document wrong: %+v", parsed)
	}
}

// Orchestration-level misuse is rejected up front.
func TestRunScenarioOptionErrors(t *testing.T) {
	if _, err := RunScenario(ScenarioOptions{}); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := RunScenario(ScenarioOptions{Spec: miniScenario(), Bindings: []string{"quantum"}}); err == nil {
		t.Error("unknown binding accepted")
	}
	if _, err := RunScenario(ScenarioOptions{Spec: miniScenario(), RecordPath: "x.jsonl"}); err == nil {
		t.Error("recording with two bindings accepted")
	}
}
