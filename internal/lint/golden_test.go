package lint

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests are a minimal, stdlib-only reimplementation of the
// analysistest idiom: fixture packages under testdata/src carry
// `// want `regex`` comments on the lines where diagnostics are
// expected; the harness runs the analyzers over a fixture and demands an
// exact one-to-one match between diagnostics and want patterns.

// wantPatternRE extracts the backquoted (or double-quoted) regexes from
// a want comment's payload.
var wantPatternRE = regexp.MustCompile("`([^`]+)`|\"([^\"]+)\"")

type wantSpec struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants scans a fixture package's comments for want expectations,
// keyed by file:line.
func collectWants(t *testing.T, pkg *Package) map[string][]*wantSpec {
	t.Helper()
	wants := map[string][]*wantSpec{}
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				payload, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				ms := wantPatternRE.FindAllStringSubmatch(payload, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: want comment with no quoted pattern: %s", key, c.Text)
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], &wantSpec{re: re})
				}
			}
		}
	}
	return wants
}

// loadFixture type-checks one testdata/src fixture package.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := LoadFixtureDir(".", filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// testGolden runs the selected checks over a fixture and matches the
// diagnostics against its want comments, both directions.
func testGolden(t *testing.T, fixture, checks string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	analyzers, err := Analyzers(checks, nil)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, analyzers)
	wants := collectWants(t, pkg)

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", key, w.re)
			}
		}
	}
}

func TestDeterminismGolden(t *testing.T) { testGolden(t, "determfix", "determinism") }

func TestSnapshotGolden(t *testing.T) { testGolden(t, "snapfix", "snapshot") }

func TestNoallocGolden(t *testing.T) { testGolden(t, "noallocfix", "noalloc") }

func TestMergePurityGolden(t *testing.T) { testGolden(t, "mergefix", "mergepurity") }

// TestMalformedAnnotations asserts that broken directives surface as
// non-suppressible annotation diagnostics. They are checked
// programmatically because a `// want` comment cannot share a line with
// the (line-comment) directive under test.
func TestMalformedAnnotations(t *testing.T) {
	pkg := loadFixture(t, "annotfix")
	diags := Run([]*Package{pkg}, nil) // no analyzers: annotation diags only
	wantSubstrings := []string{
		"ravenlint:allow needs a check name",
		"ravenlint:allow determinism needs a reason",
		`unknown ravenlint directive "nosuchdirective"`,
		"ravenlint:snapshot-ignore needs a reason",
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wantSubstrings), diags)
	}
	for _, want := range wantSubstrings {
		found := false
		for _, d := range diags {
			if d.Check == CheckAnnotation && strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no annotation diagnostic containing %q in %v", want, diags)
		}
	}
}

// TestRepoLintsClean is the gate the fixtures justify: the real tree,
// loaded exactly the way cmd/ravenlint loads it, produces zero
// diagnostics under every AST check at its repository scope. (The
// build-driven noalloc-escape check has its own gate in escape_test.go.)
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("re-typechecks the whole module")
	}
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select("all", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs, sel.Analyzers) {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestAnalyzerSelection covers the -checks flag's parsing surface.
func TestAnalyzerSelection(t *testing.T) {
	sel, err := Select("all", true)
	if err != nil || len(sel.Analyzers) != 4 || !sel.Escape {
		t.Fatalf("all: got %d analyzers, escape %v, err %v", len(sel.Analyzers), sel.Escape, err)
	}
	sel, err = Select("noalloc-escape", false)
	if err != nil || len(sel.Analyzers) != 0 || !sel.Escape {
		t.Fatalf("noalloc-escape: got %d analyzers, escape %v, err %v", len(sel.Analyzers), sel.Escape, err)
	}
	as, err := Analyzers("determinism,noalloc", nil)
	if err != nil || len(as) != 2 {
		t.Fatalf("subset: got %d analyzers, err %v", len(as), err)
	}
	if as[0].Name != CheckDeterminism || as[1].Name != CheckNoalloc {
		t.Fatalf("subset order: got %s, %s", as[0].Name, as[1].Name)
	}
	if as, err := Analyzers("snapshot,mergepurity", nil); err != nil || len(as) != 2 {
		t.Fatalf("pair: got %d analyzers, err %v", len(as), err)
	}
	if _, err := Analyzers("nosuch", nil); err == nil {
		t.Fatal("unknown check accepted")
	}
}

// TestDiagnosticJSON pins the JSON shape the -json flag emits.
func TestDiagnosticJSON(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 12, Col: 3, Check: CheckNoalloc, Severity: SeverityError, Message: "make allocates"}
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"a/b.go","line":12,"col":3,"check":"noalloc","severity":"error","message":"make allocates"}`
	if string(blob) != want {
		t.Fatalf("got %s, want %s", blob, want)
	}
	var back Diagnostic
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip: got %+v, want %+v", back, d)
	}
	if s := d.String(); s != "a/b.go:12:3: [noalloc] make allocates" {
		t.Fatalf("String: got %q", s)
	}
}
