// Package analysis is a small, dependency-free reimplementation of the
// go/analysis driver shape for the CAPS simulator. The container this repo
// builds in has no module proxy, so golang.org/x/tools is unavailable; the
// three simulator lints (detlint, cyclelint, statlint) instead run on the
// standard library's go/ast + go/types typechecker through this package.
//
// The shape mirrors go/analysis deliberately: an Analyzer owns a Run
// function over a Pass, a Pass exposes the typed syntax of one package and
// collects diagnostics. If the proxy ever becomes reachable, porting the
// analyzers to the real framework is a mechanical change.
//
// Findings can be suppressed at a specific site with a comment on the same
// line or the line above:
//
//	//simcheck:allow <analyzer> <reason>
//
// The reason is free text but required by convention — an allow without a
// justification defeats the audit trail the lints exist to provide.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a typed package.
type Analyzer struct {
	Name string
	Doc  string

	// Scope restricts repo-wide runs to packages for which it returns
	// true; nil means every package. Fixture runs (analysistest) bypass
	// it so testdata packages exercise the check regardless of path.
	Scope func(pkgPath string) bool

	Run func(*Pass) error
}

// Pass carries one package's typed syntax through an Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned in the source. Module analyzers
// (hotlint) additionally record the containing function and a
// finding category; the pair keys the ratchet baseline, which must survive
// line-number drift that a position key would not.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Func     string // full name of the containing function ("" for per-package analyzers)
	Category string // finding class, e.g. "make", "box" ("" for per-package analyzers)
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the simulator's analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detlint, Cyclelint, Statlint}
}

// scopeOf builds a Scope matching caps/internal/<name> (and subpackages)
// for each listed name. A name beginning with "cmd" addresses the command
// tree instead: "cmd" covers every binary under caps/cmd, "cmd/capsim"
// just the one.
func scopeOf(names ...string) func(string) bool {
	prefixes := make([]string, len(names))
	for i, n := range names {
		if n == "cmd" || strings.HasPrefix(n, "cmd/") {
			prefixes[i] = "caps/" + n
		} else {
			prefixes[i] = "caps/internal/" + n
		}
	}
	return func(pkgPath string) bool {
		for _, p := range prefixes {
			if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
				return true
			}
		}
		return false
	}
}

// Check runs every analyzer over every package it is scoped to and returns
// the surviving diagnostics sorted by position. Findings sited on a line
// carrying (or directly below) a matching //simcheck:allow comment are
// dropped.
func Check(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		allowed := suppressions(pkg)
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.Path) {
				continue
			}
			diags, err := runOne(pkg, a)
			if err != nil {
				return nil, err
			}
			for _, d := range diags {
				if allowed[suppKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// RunAnalyzer runs one analyzer over one package ignoring its Scope but
// honoring //simcheck:allow suppressions. analysistest uses it on fixture
// packages whose synthetic import paths would never match a real scope.
func RunAnalyzer(pkg *Package, a *Analyzer) ([]Diagnostic, error) {
	allowed := suppressions(pkg)
	diags, err := runOne(pkg, a)
	if err != nil {
		return nil, err
	}
	kept := diags[:0]
	for _, d := range diags {
		if allowed[suppKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	return kept, nil
}

func runOne(pkg *Package, a *Analyzer) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
	}
	return pass.diags, nil
}

type suppKey struct {
	file     string
	line     int
	analyzer string
}

// suppressions indexes the package's //simcheck:allow comments. A comment
// on line L silences the named analyzer on L (trailing form) and L+1
// (line-above form).
func suppressions(pkg *Package) map[suppKey]bool {
	allowed := make(map[suppKey]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "simcheck:allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "simcheck:allow"))
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				allowed[suppKey{pos.Filename, pos.Line, fields[0]}] = true
				allowed[suppKey{pos.Filename, pos.Line + 1, fields[0]}] = true
			}
		}
	}
	return allowed
}
