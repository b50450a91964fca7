// Package lint is ravenlint's engine: a stdlib-only static-analysis
// framework (go/parser + go/types, driven off `go list -json -export`)
// with five repo-specific checks that turn this repository's runtime
// invariants into build breaks:
//
//   - determinism: the deterministic-replay packages must not read wall
//     clocks, draw from the shared package-level math/rand stream, or
//     leak map iteration order into outputs or snapshots;
//   - snapshot: every capture/restore pair must cover every mutable
//     field of its type, so a field added without a checkpoint entry is
//     caught before forks silently diverge;
//   - noalloc: functions annotated `//ravenlint:noalloc` must contain no
//     allocating constructs — the static complement to the
//     testing.AllocsPerRun guards;
//   - mergepurity: every reducer reachable from shard.Merger /
//     stats.Forest / metrics Merge methods is order-insensitive;
//   - noalloc-escape: evidence for the noalloc annotations — drives
//     `go build -gcflags=-m` per annotated package and fails when the
//     compiler reports a heap escape inside an annotated function.
//
// Escape hatches are explicit and carry a reason:
//
//	//ravenlint:allow <check> <reason>            (same line or line above)
//	//ravenlint:snapshot-ignore <reason>          (on a struct field)
//	//ravenlint:noalloc                           (opt a function in)
//
// The framework deliberately avoids golang.org/x/tools: go.mod stays
// dependency-free, and the checks need only syntax trees, type
// information, positions, and (for noalloc-escape) the compiler's own
// diagnostics.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Check names.
const (
	CheckDeterminism   = "determinism"
	CheckSnapshot      = "snapshot"
	CheckNoalloc       = "noalloc"
	CheckMergePurity   = "mergepurity"
	CheckNoallocEscape = "noalloc-escape"
	// CheckAnnotation reports malformed ravenlint annotations (for
	// example an allow with no reason). It cannot be suppressed.
	CheckAnnotation = "annotation"
)

// Severity levels. Every finding fails the build (exit 1); severity
// distinguishes invariant violations from annotation hygiene so CI
// summaries and dashboards can group them.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Diagnostic is one finding, positioned at the offending construct. The
// field order here is the documented, stable `-json` schema; the CLI
// emits findings sorted by (file, line, col, message) so CI diffs are
// deterministic.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Check    string `json:"check"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	allows    []allowAnnot
	annotDiag []Diagnostic
}

// diag builds a Diagnostic at pos. Invariant violations are errors;
// annotation hygiene findings are warnings (they still fail the run).
func (p *Package) diag(check string, pos token.Pos, format string, args ...any) Diagnostic {
	position := p.Fset.Position(pos)
	severity := SeverityError
	if check == CheckAnnotation {
		severity = SeverityWarning
	}
	return Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Check:    check,
		Severity: severity,
		Message:  fmt.Sprintf(format, args...),
	}
}

// fileOf returns the *ast.File containing pos.
func (p *Package) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// suppressed reports whether an allow annotation covers the diagnostic:
// an `//ravenlint:allow <check> <reason>` on the same line, on the line
// directly above, or in the doc comment of the enclosing function.
func (p *Package) suppressed(d Diagnostic, pos token.Pos) bool {
	if d.Check == CheckAnnotation {
		return false
	}
	for _, a := range p.allows {
		if a.check != d.Check || a.file != d.File {
			continue
		}
		if a.line == d.Line || a.line == d.Line-1 {
			return true
		}
	}
	// Function-doc-level allows cover the whole body.
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil || !(fd.Pos() <= pos && pos <= fd.End()) {
			continue
		}
		for _, c := range fd.Doc.List {
			if ann, ok := parseAnnotation(c.Text); ok && ann.kind == annotAllow && ann.check == d.Check {
				return true
			}
		}
	}
	return false
}

// Run applies the analyzers to the packages, filters allow-suppressed
// findings, appends malformed-annotation diagnostics, and returns the
// remainder sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		out = append(out, p.annotDiag...)
		for _, a := range analyzers {
			for _, d := range a.Run(p) {
				pos := findPos(p, d)
				if !p.suppressed(d, pos) {
					out = append(out, d)
				}
			}
		}
	}
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders findings by position (then message) so output —
// textual or -json — is deterministic for CI diffs.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].File != ds[j].File {
			return ds[i].File < ds[j].File
		}
		if ds[i].Line != ds[j].Line {
			return ds[i].Line < ds[j].Line
		}
		if ds[i].Col != ds[j].Col {
			return ds[i].Col < ds[j].Col
		}
		return ds[i].Message < ds[j].Message
	})
}

// findPos recovers a token.Pos for a diagnostic from its file:line:col,
// for enclosing-function suppression lookups.
func findPos(p *Package, d Diagnostic) token.Pos {
	var pos token.Pos
	p.Fset.Iterate(func(f *token.File) bool {
		if f.Name() != d.File {
			return true
		}
		if d.Line >= 1 && d.Line <= f.LineCount() {
			pos = f.LineStart(d.Line)
		}
		return false
	})
	return pos
}

// AllChecks lists every check name in canonical order.
var AllChecks = []string{
	CheckDeterminism, CheckSnapshot, CheckNoalloc,
	CheckMergePurity, CheckNoallocEscape,
}

// Selection is the outcome of parsing a -checks list: the AST analyzers
// to run, plus whether the build-driven noalloc-escape check was
// selected — that one drives the compiler per annotated package (see
// EscapeCheck) instead of walking a type-checked Package.
type Selection struct {
	Analyzers []*Analyzer
	Escape    bool
}

// Select parses the comma-separated checks list (empty or "all" selects
// every check). scoped applies the repository package scopes — the
// determinism analyzer over the deterministic-replay packages and
// mergepurity over the reducer packages. Unscoped runs them over every
// loaded package, which is what the fixture tests want.
func Select(checks string, scoped bool) (Selection, error) {
	var detMatch, mpMatch func(string) bool
	if scoped {
		detMatch, mpMatch = MatchDeterministic, MatchReducer
	}
	all := map[string]*Analyzer{
		CheckDeterminism: DeterminismAnalyzer(detMatch),
		CheckSnapshot:    SnapshotAnalyzer(),
		CheckNoalloc:     NoallocAnalyzer(),
		CheckMergePurity: MergePurityAnalyzer(mpMatch),
	}
	names := AllChecks
	if checks != "" && checks != "all" {
		names = strings.Split(checks, ",")
	}
	var sel Selection
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == CheckNoallocEscape {
			sel.Escape = true
			continue
		}
		a, ok := all[name]
		if !ok {
			return Selection{}, fmt.Errorf("lint: unknown check %q (have %s)", name, strings.Join(AllChecks, ", "))
		}
		sel.Analyzers = append(sel.Analyzers, a)
	}
	return sel, nil
}

// Analyzers returns the AST analyzer set selected by the checks list.
// match, when non-nil, scopes the package-scoped analyzers (determinism,
// mergepurity) to the import paths it accepts; nil runs them everywhere.
// Kept for test harnesses that drive one analyzer over one fixture; the
// CLI uses Select.
func Analyzers(checks string, match func(importPath string) bool) ([]*Analyzer, error) {
	sel, err := Select(checks, false)
	if err != nil {
		return nil, err
	}
	if match != nil {
		for _, a := range sel.Analyzers {
			a := a
			switch a.Name {
			case CheckDeterminism, CheckMergePurity:
				inner := a.Run
				a.Run = func(p *Package) []Diagnostic {
					if !match(p.ImportPath) {
						return nil
					}
					return inner(p)
				}
			}
		}
	}
	return sel.Analyzers, nil
}
