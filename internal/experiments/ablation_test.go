package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestAblationAUBvsDS(t *testing.T) {
	results, err := RunAblationAUBvsDS(AblationOptions{
		Procs:   3,
		Tasks:   9,
		Horizon: time.Minute,
		Seeds:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	byName := map[string]AblationResult{}
	for _, r := range results {
		byName[r.Technique] = r
		if r.AcceptedRatio <= 0 || r.AcceptedRatio > 1 {
			t.Errorf("%s: ratio %g out of (0, 1]", r.Technique, r.AcceptedRatio)
		}
		if len(r.PerSeed) != 5 {
			t.Errorf("%s: %d seeds, want 5", r.Technique, len(r.PerSeed))
		}
	}
	aub, ds := byName["AUB"], byName["DS"]
	if aub.Technique == "" || ds.Technique == "" {
		t.Fatal("missing technique results")
	}
	// The paper's Section 2 finding: comparable performance. Both accept a
	// solid majority of offered utilization at 0.5 load, and they land
	// within a modest band of each other.
	if aub.AcceptedRatio < 0.5 {
		t.Errorf("AUB accepted ratio %.3f unexpectedly low", aub.AcceptedRatio)
	}
	if ds.AcceptedRatio < 0.5 {
		t.Errorf("DS accepted ratio %.3f unexpectedly low", ds.AcceptedRatio)
	}
	if diff := math.Abs(aub.AcceptedRatio - ds.AcceptedRatio); diff > 0.35 {
		t.Errorf("AUB %.3f vs DS %.3f differ by %.3f — not comparable", aub.AcceptedRatio, ds.AcceptedRatio, diff)
	}

	out := tableOf(series[AblationResult]{Experiment: "ablation", Results: results, table: writeAblation})
	if !strings.Contains(out, "AUB") || !strings.Contains(out, "DS") {
		t.Errorf("render missing techniques:\n%s", out)
	}
}

func TestAblationDeterministic(t *testing.T) {
	opts := AblationOptions{Procs: 2, Tasks: 4, Horizon: 30 * time.Second, Seeds: 2}
	a, err := RunAblationAUBvsDS(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAblationAUBvsDS(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].AcceptedRatio != b[i].AcceptedRatio {
			t.Errorf("%s: %g vs %g across identical runs", a[i].Technique, a[i].AcceptedRatio, b[i].AcceptedRatio)
		}
	}
}
