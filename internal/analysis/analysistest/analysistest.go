// Package analysistest runs an analyzer over a fixture package and checks
// its diagnostics against `// want "regexp"` annotations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library only.
//
// Every line of a fixture file may carry one expectation:
//
//	rand.Intn(8) // want `global math/rand`
//
// The test fails if an expectation matches no diagnostic on its line, or a
// diagnostic appears on a line with no matching expectation.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"caps/internal/analysis"
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads dir as a fixture package rooted at the enclosing module and
// applies a, comparing diagnostics with the fixture's want annotations.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadFixture(root, dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.RunAnalyzer(pkg, a)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, a.Name, pkg, diags, dir)
}

// RunModule loads dir as a fixture package and applies a module analyzer
// (hotlint) to it as a one-package module, comparing diagnostics
// with the fixture's want annotations. The fixture's //caps: annotations
// are collected exactly as they would be on the real module, so fixtures
// exercise roots and suppressions end to end.
func RunModule(t *testing.T, a *analysis.ModuleAnalyzer, dir string) {
	t.Helper()
	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadFixture(root, dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.CheckModule([]*analysis.Package{pkg}, []*analysis.ModuleAnalyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	compare(t, a.Name, pkg, diags, dir)
}

func compare(t *testing.T, name string, pkg *analysis.Package, diags []analysis.Diagnostic, dir string) {
	t.Helper()
	wants := collectWants(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want annotations; a fixture must assert at least one true positive", dir)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no %s diagnostic matching %q", w.file, w.line, name, w.re)
		}
	}
}

// collectWants scans the fixture's comments for want annotations. Both
// `// want "re"` and backquoted `// want ` + "`re`" forms are accepted.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pat, err := unquoteWant(strings.TrimSpace(rest))
				if err != nil {
					t.Fatalf("%s: bad want annotation %q: %v", pkg.Fset.Position(c.Pos()), rest, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", pkg.Fset.Position(c.Pos()), pat, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

func unquoteWant(s string) (string, error) {
	if strings.HasPrefix(s, "`") || strings.HasPrefix(s, `"`) {
		return strconv.Unquote(s)
	}
	return s, nil
}
