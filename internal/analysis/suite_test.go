package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestNoAlloc(t *testing.T)     { analysistest.Run(t, fixture("noalloc"), analysis.NoAlloc) }
func TestNoScan(t *testing.T)      { analysistest.Run(t, fixture("noscan"), analysis.NoScan) }
func TestMapOrder(t *testing.T)    { analysistest.Run(t, fixture("maporder"), analysis.MapOrder) }
func TestAtomicField(t *testing.T) { analysistest.Run(t, fixture("atomicfield"), analysis.AtomicField) }
func TestSentinelWrap(t *testing.T) {
	analysistest.Run(t, fixture("sentinelwrap"), analysis.SentinelWrap)
}
func TestDirectives(t *testing.T) { analysistest.Run(t, fixture("directive"), analysis.Directives) }

// TestLookup pins the analyzer registry the -only flag and //rtmw:ignore
// grammar check resolve against.
func TestLookup(t *testing.T) {
	for _, name := range []string{"noalloc", "noscan", "maporder", "atomicfield", "sentinelwrap", "directive"} {
		if analysis.Lookup(name) == nil {
			t.Errorf("Lookup(%q) = nil", name)
		}
	}
	if analysis.Lookup("nope") != nil {
		t.Errorf("Lookup(nope) != nil")
	}
	if len(analysis.Suite) != 6 {
		t.Errorf("Suite has %d analyzers, want 6", len(analysis.Suite))
	}
}

// TestRepoClean runs the full suite over the whole module, pinning the
// acceptance criterion `go run ./cmd/rtmw-vet ./...` exits clean — any
// invariant regression fails here before CI's lint job sees it.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages, expected the whole module", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := analysis.RunPackage(pkg, analysis.Suite)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
