// Package analysis is rtmw-vet: a small, dependency-free static-analysis
// framework plus the analyzers that machine-check invariants this repo
// otherwise documents only in comments and pins only at runtime — the
// allocation-free hot paths pinned by testing.AllocsPerRun, byte-identical
// record/replay that map iteration order silently breaks, fields that must
// be accessed through sync/atomic at every site or not at all, and sentinel
// errors that must stay matchable with errors.Is.
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// go/analysis (Analyzer, Pass, Reportf, analysistest-style fixtures) but is
// built only on the standard library: packages are enumerated with
// `go list -deps -export -json` and type-checked with go/types, importing
// dependencies from the compiler's export data. See DESIGN.md "Static
// invariant enforcement".
//
// Annotation grammar (all directives are ordinary //-comments, no space
// after the slashes, mirroring go:build style):
//
//	//rtmw:noalloc
//	    On a function or method declaration: the body must be free of
//	    constructs that allocate on every call (closures, fmt, interface
//	    boxing, unbounded append, make/new, &composite, string concat).
//	//rtmw:deterministic
//	    On a function: map iteration without a sort is flagged inside it.
//	//rtmw:deterministic file
//	    Before the package clause: the whole file is determinism-critical.
//	//rtmw:noscan
//	    On a type declaration: the type holds no pointer words, so the
//	    collector never scans it.
//	//rtmw:ignore <analyzer> <reason>
//	    On the flagged line or the line directly above: suppress one
//	    analyzer's diagnostics for that line. The reason is mandatory.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rtmw:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// Directive is one parsed //rtmw: comment.
type Directive struct {
	Pos  token.Pos
	Kind string   // "noalloc", "noscan", "deterministic", "ignore"
	Args []string // whitespace-split arguments after the kind
}

// directivePrefix introduces every rtmw annotation.
const directivePrefix = "//rtmw:"

// parseDirectives extracts every //rtmw: directive from a comment group.
func parseDirectives(g *ast.CommentGroup) []Directive {
	if g == nil {
		return nil
	}
	var out []Directive
	for _, c := range g.List {
		rest, ok := strings.CutPrefix(c.Text, directivePrefix)
		if !ok {
			continue
		}
		// A `//` inside the directive text ends it (it introduces trailing
		// prose, e.g. the `// want` annotations in analyzer fixtures).
		if cut := strings.Index(rest, "//"); cut >= 0 {
			rest = rest[:cut]
		}
		fields := strings.Fields(rest)
		d := Directive{Pos: c.Pos()}
		if len(fields) > 0 {
			d.Kind = fields[0]
			d.Args = fields[1:]
		}
		out = append(out, d)
	}
	return out
}

// FuncDirective reports whether fn's doc comment carries the named
// directive kind (e.g. "noalloc").
func FuncDirective(fn *ast.FuncDecl, kind string) bool {
	for _, d := range parseDirectives(fn.Doc) {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

// FileDirective reports whether any comment group positioned before the
// package clause carries `//rtmw:<kind> file`.
func FileDirective(f *ast.File, kind string) bool {
	for _, g := range f.Comments {
		if g.End() > f.Package {
			break
		}
		for _, d := range parseDirectives(g) {
			if d.Kind == kind && len(d.Args) == 1 && d.Args[0] == "file" {
				return true
			}
		}
	}
	return false
}

// ignoreKey addresses one suppressible (file, line, analyzer) cell.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// ignoreIndex maps the lines each //rtmw:ignore directive covers (its own
// line and the next line, so the directive works both as a trailing comment
// and as a standalone line above the finding).
type ignoreIndex struct {
	cells map[ignoreKey]*ignoreCell
}

type ignoreCell struct {
	pos  token.Position
	used bool
}

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	idx := &ignoreIndex{cells: make(map[ignoreKey]*ignoreCell)}
	for _, f := range files {
		for _, g := range f.Comments {
			for _, d := range parseDirectives(g) {
				if d.Kind != "ignore" || len(d.Args) < 2 {
					continue // grammar violations are reported by Directives
				}
				pos := fset.Position(d.Pos)
				cell := &ignoreCell{pos: pos}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					idx.cells[ignoreKey{pos.Filename, line, d.Args[0]}] = cell
				}
			}
		}
	}
	return idx
}

// suppressed reports whether d is covered by an //rtmw:ignore directive,
// marking the directive used.
func (idx *ignoreIndex) suppressed(d Diagnostic) bool {
	cell, ok := idx.cells[ignoreKey{d.Position.Filename, d.Position.Line, d.Analyzer}]
	if ok {
		cell.used = true
	}
	return ok
}

// RunPackage applies every analyzer to one loaded package and returns the
// surviving diagnostics (those not covered by //rtmw:ignore), sorted by
// position. Directive-grammar findings from the Directives analyzer are not
// suppressible.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	idx := buildIgnoreIndex(pkg.Fset, pkg.Files)
	kept := raw[:0]
	for _, d := range raw {
		if d.Analyzer != Directives.Name && idx.suppressed(d) {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Position, kept[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return kept, nil
}

// Suite is every rtmw-vet analyzer, in reporting order. It is populated in
// init so that Directives.Run may call Lookup without an initialization
// cycle.
var Suite []*Analyzer

func init() {
	Suite = []*Analyzer{
		Directives,
		NoAlloc,
		NoScan,
		MapOrder,
		AtomicField,
		SentinelWrap,
	}
}

// Lookup returns the suite analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range Suite {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Directives validates the grammar and placement of every //rtmw: comment,
// so a typo in an annotation fails the build instead of silently disabling
// a check.
var Directives = &Analyzer{
	Name: "directive",
	Doc: "check that every //rtmw: annotation parses: known kind, required " +
		"arguments (ignore needs an analyzer name and a reason), and " +
		"analyzer names that actually exist",
	Run: runDirectives,
}

func runDirectives(pass *Pass) error {
	for _, f := range pass.Files {
		for _, g := range f.Comments {
			for _, d := range parseDirectives(g) {
				checkDirective(pass, d)
			}
		}
	}
	return nil
}

func checkDirective(pass *Pass, d Directive) {
	switch d.Kind {
	case "noalloc", "noscan":
		if len(d.Args) != 0 {
			pass.Reportf(d.Pos, "//rtmw:%s takes no arguments", d.Kind)
		}
	case "deterministic":
		if len(d.Args) > 1 || (len(d.Args) == 1 && d.Args[0] != "file") {
			pass.Reportf(d.Pos, "//rtmw:deterministic takes no argument or the single word `file`")
		}
	case "ignore":
		if len(d.Args) < 2 {
			pass.Reportf(d.Pos, "//rtmw:ignore wants `<analyzer> <reason>`: the reason is mandatory")
			return
		}
		if Lookup(d.Args[0]) == nil {
			pass.Reportf(d.Pos, "//rtmw:ignore names unknown analyzer %q", d.Args[0])
		}
	default:
		pass.Reportf(d.Pos, "unknown rtmw directive %q", d.Kind)
	}
}
