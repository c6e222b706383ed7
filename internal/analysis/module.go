package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// ModuleAnalyzer is a check that needs the whole module at once — a
// cross-package call graph, annotation inventory, or any property that a
// single package's syntax cannot establish. hotlint is a module analyzer:
// its findings depend on reachability from annotated roots through calls
// that cross package boundaries (SM.Tick → sched.Pick → obs emit), so the
// per-package Analyzer shape cannot express them.
type ModuleAnalyzer struct {
	Name string
	Doc  string
	Run  func(*ModulePass) error
}

// ModulePass carries the typed syntax of every module package, plus the
// shared call graph and //caps: annotation inventory, through one
// ModuleAnalyzer.Run.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Graph    *CallGraph
	Ann      *Annotations

	diags []Diagnostic
}

// Reportf records a diagnostic at pos. fn and category key the finding for
// the ratchet baseline (see baseline.go): positions drift with every edit,
// so the baseline matches on (analyzer, function, category) instead.
func (p *ModulePass) Reportf(pos token.Pos, fn, category, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Func:     fn,
		Category: category,
		Message:  fmt.Sprintf(format, args...),
	})
}

// AllModule returns the module-level analyzer suite in reporting order.
func AllModule() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{Hotlint}
}

// CheckModule runs each module analyzer over the whole package set and
// returns the surviving diagnostics sorted by position. The call graph and
// annotation inventory are built once and shared. //simcheck:allow
// suppressions apply exactly as they do for per-package analyzers;
// hotlint additionally honors its own //caps:alloc-ok site annotations
// (those are semantic — they prune the walk — so they live in the
// analyzer, not here).
func CheckModule(pkgs []*Package, analyzers []*ModuleAnalyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	ann := CollectAnnotations(pkgs)
	graph := BuildCallGraph(pkgs)
	allowed := make(map[suppKey]bool)
	for _, pkg := range pkgs {
		for k, v := range suppressions(pkg) {
			if v {
				allowed[k] = true
			}
		}
	}
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &ModulePass{
			Analyzer: a,
			Fset:     pkgs[0].Fset,
			Pkgs:     pkgs,
			Graph:    graph,
			Ann:      ann,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			if allowed[suppKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
				continue
			}
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out, nil
}

func sortDiagnostics(out []Diagnostic) {
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
}
