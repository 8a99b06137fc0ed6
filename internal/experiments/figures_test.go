package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// reproduction runs a figure's registry entry at the paper's full parameters
// (10 sets, 5 simulated minutes — the flags' zero values; the DES makes this
// cheap in wall-clock time) and asserts through the entry's verdict: the
// paper's findings are what Passed reports, so rtmw-bench exits non-zero on
// the same regression this test fails on.
func reproduction(t *testing.T, name string) []ComboResult {
	t.Helper()
	for _, e := range Registry() {
		if e.Name != name {
			continue
		}
		rep, err := e.Run(Params{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := rep.(series[ComboResult])
		if s.Verdict == nil {
			t.Fatal("a full-parameter run carries no verdict")
		}
		if !rep.Passed() {
			t.Errorf("paper findings not reproduced:\n%s", tableOf(rep))
		}
		if len(s.Results) != 15 {
			t.Fatalf("got %d combos, want 15", len(s.Results))
		}
		return s.Results
	}
	t.Fatalf("no registry entry %q", name)
	return nil
}

// TestFigure5Shape: Section 7.1's findings (figure5Findings) hold — IR per
// job above per task above none, LB per task above none, a J_J_* combination
// best.
func TestFigure5Shape(t *testing.T) {
	for _, r := range reproduction(t, "figure5") {
		if r.Mean <= 0 || r.Mean > 1 {
			t.Errorf("%s: mean ratio %g out of (0, 1]", r.Combo, r.Mean)
		}
		if len(r.PerSet) != 10 {
			t.Errorf("%s: %d per-set results, want 10", r.Combo, len(r.PerSet))
		}
	}
}

// TestFigure6Shape: Section 7.2's finding (figure6Findings) holds within
// every AC/IR group — LB per task well above no LB, per task and per job
// comparable.
func TestFigure6Shape(t *testing.T) {
	reproduction(t, "figure6")
}

// TestFigureFindingsCatchRegressions: the verdict functions name what a
// contradicting result breaks, and a smoke-sized run carries no verdict.
func TestFigureFindingsCatchRegressions(t *testing.T) {
	var flat []ComboResult
	for _, c := range core.AllCombinations() {
		flat = append(flat, ComboResult{Combo: c, Mean: 0.5})
	}
	if got := figure5Findings(flat); len(got) != 4 {
		t.Errorf("figure5Findings on a flat result = %q, want all four findings", got)
	}
	if got := figure6Findings(flat); len(got) != 5 {
		t.Errorf("figure6Findings on a flat result = %q, want one per group", got)
	}
	rep, err := figureEntry("figure5", "s", "t", workload.Figure5Params, figure5Findings).Run(Params{Sets: 1, Horizon: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.(series[ComboResult]).Verdict != nil || !rep.Passed() {
		t.Error("a smoke-sized run carries a verdict")
	}
}

func TestFigureOptionsCombosFilter(t *testing.T) {
	only := []core.Config{{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}}
	results, err := RunFigure5(FigureOptions{Sets: 2, Horizon: 30 * time.Second, Combos: only})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Combo != only[0] {
		t.Fatalf("results = %+v, want single J_J_J entry", results)
	}
	if len(results[0].PerSet) != 2 {
		t.Errorf("PerSet = %v, want 2 entries", results[0].PerSet)
	}
}

func TestFigureDeterminism(t *testing.T) {
	opts := FigureOptions{Sets: 3, Horizon: time.Minute}
	a, err := RunFigure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFigure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Mean != b[i].Mean {
			t.Errorf("%s: mean %g vs %g across identical runs", a[i].Combo, a[i].Mean, b[i].Mean)
		}
	}
}

func TestMeanOf(t *testing.T) {
	results := []ComboResult{
		{Combo: core.Config{AC: core.StrategyPerTask, IR: core.StrategyNone, LB: core.StrategyNone}, Mean: 0.2},
		{Combo: core.Config{AC: core.StrategyPerJob, IR: core.StrategyNone, LB: core.StrategyNone}, Mean: 0.4},
		{Combo: core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyNone}, Mean: 0.6},
	}
	if got := MeanOf(results, "*_N_*"); !approx(got, 0.3) {
		t.Errorf("MeanOf(*_N_*) = %g, want 0.3", got)
	}
	if got := MeanOf(results, "J_*_*"); !approx(got, 0.5) {
		t.Errorf("MeanOf(J_*_*) = %g, want 0.5", got)
	}
	if got := MeanOf(results, "*_*_J"); got != 0 {
		t.Errorf("MeanOf with no matches = %g, want 0", got)
	}
}

func TestRenderers(t *testing.T) {
	results := []ComboResult{
		{Combo: core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob},
			Mean: 0.75, PerSet: []float64{0.7, 0.8}},
	}
	fig := RenderFigure("Figure X", results)
	if !strings.Contains(fig, "J_J_J") || !strings.Contains(fig, "0.750") {
		t.Errorf("RenderFigure output missing fields:\n%s", fig)
	}
	csv := RenderCSV(results)
	if !strings.Contains(csv, "combo,mean,set0,set1") || !strings.Contains(csv, "J_J_J,0.750000,0.700000,0.800000") {
		t.Errorf("RenderCSV output unexpected:\n%s", csv)
	}
}

func TestRanked(t *testing.T) {
	results := []ComboResult{
		{Combo: core.Config{AC: core.StrategyPerTask, IR: core.StrategyNone, LB: core.StrategyNone}, Mean: 0.2},
		{Combo: core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}, Mean: 0.9},
	}
	ranked := Ranked(results)
	if ranked[0].Mean != 0.9 || ranked[1].Mean != 0.2 {
		t.Errorf("Ranked order wrong: %+v", ranked)
	}
	// Input order preserved.
	if results[0].Mean != 0.2 {
		t.Error("Ranked mutated its input")
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
