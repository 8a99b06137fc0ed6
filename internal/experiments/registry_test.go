package experiments

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// tableOf renders a report's table.
func tableOf(r Report) string {
	var b strings.Builder
	r.WriteTable(&b)
	return b.String()
}

// TestRenderJSON runs every registry entry at its smallest parameters and
// checks both renderings: the table is not empty, the marshaled report is a
// JSON document naming the entry under "experiment", the document's "passed"
// (where the experiment has a verdict) is what Passed reports, and the keys
// CI artifacts are read by are present.
func TestRenderJSON(t *testing.T) {
	base := Params{
		Sets: 1, Horizon: 10 * time.Second, Duration: 200 * time.Millisecond, Pings: 20,
		Parallel: 1, Points: "5x100", From: "T_N_N", To: "J_J_J", NoLive: true,
	}
	args := map[string][]string{
		"scenario": {"-spec", "../../scenarios/flashcrowd.json", "-binding", "sim"},
	}
	live := map[string]bool{"overhead": true, "failover": true}
	wantKeys := map[string][]string{
		"table1":   {`"valid_combinations":["T_N_N"`},
		"figure5":  {`"combo":"J_J_J"`, `"per_set":[`},
		"figure6":  {`"combo":"J_J_J"`, `"mean":`},
		"ablation": {`"technique":"AUB"`, `"technique":"DS"`},
		"scale":    {`"point":{"procs":5,"tasks":100}`, `"jobs_per_sec":`},
		"reconfig": {`"from":"T_N_N"`, `"to":"J_J_J"`, `"lost":0`, `"quiesce_ns":`},
		"churn":    {`"watch_ordered":true`, `"combo":"T_N_N"`},
		"scenario": {`"binding":"sim"`, `"passed":true`},
	}
	seen := make(map[string]bool)
	for _, e := range Registry() {
		if seen[e.Name] {
			t.Errorf("%s registered twice", e.Name)
		}
		seen[e.Name] = true
		if e.OwnArgs != (args[e.Name] != nil) {
			t.Errorf("%s: OwnArgs = %v but the test has args %v for it", e.Name, e.OwnArgs, args[e.Name])
		}
		t.Run(e.Name, func(t *testing.T) {
			if live[e.Name] && testing.Short() {
				t.Skip("live cluster run in -short mode")
			}
			p := base
			p.Args = args[e.Name]
			rep, err := e.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if e.Summary == "" || strings.TrimSpace(tableOf(rep)) == "" {
				t.Errorf("summary %q, table %q: both must be non-empty", e.Summary, tableOf(rep))
			}
			doc, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Experiment string `json:"experiment"`
				Passed     *bool  `json:"passed"`
			}
			if err := json.Unmarshal(doc, &parsed); err != nil {
				t.Fatalf("document does not decode: %v\n%s", err, doc)
			}
			if parsed.Experiment != e.Name {
				t.Errorf(`"experiment" = %q, want %q`, parsed.Experiment, e.Name)
			}
			if parsed.Passed != nil && *parsed.Passed != rep.Passed() {
				t.Errorf(`"passed" = %v but Passed() = %v`, *parsed.Passed, rep.Passed())
			}
			for _, want := range wantKeys[e.Name] {
				if !strings.Contains(string(doc), want) {
					t.Errorf("document missing %s:\n%s", want, doc)
				}
			}
		})
	}
}
