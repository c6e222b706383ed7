package analysis_test

import (
	"path/filepath"
	"testing"

	"caps/internal/analysis"
	"caps/internal/analysis/analysistest"
)

func TestDetlintFixture(t *testing.T) {
	analysistest.Run(t, analysis.Detlint, filepath.Join("testdata", "detlint"))
}

func TestCyclelintFixture(t *testing.T) {
	analysistest.Run(t, analysis.Cyclelint, filepath.Join("testdata", "cyclelint"))
}

func TestStatlintFixture(t *testing.T) {
	analysistest.Run(t, analysis.Statlint, filepath.Join("testdata", "statlint"))
}

func TestHotlintFixture(t *testing.T) {
	analysistest.RunModule(t, analysis.Hotlint, filepath.Join("testdata", "hotlint"))
}

// TestBaselineRoundTrip exercises the ratchet: a written baseline absorbs
// the findings it records, new findings stay fatal, shrinking debt is
// reported stale.
func TestBaselineRoundTrip(t *testing.T) {
	diags := []analysis.Diagnostic{
		{Analyzer: "hotlint", Func: "caps/internal/sim.fn", Category: "make", Message: "m1"},
		{Analyzer: "hotlint", Func: "caps/internal/sim.fn", Category: "make", Message: "m2"},
		{Analyzer: "hotlint", Func: "caps/internal/sim.gn", Category: "box", Message: "b"},
	}
	path := filepath.Join(t.TempDir(), "baseline")
	if err := analysis.WriteBaseline(path, diags); err != nil {
		t.Fatal(err)
	}
	base, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	kept, stale := analysis.ApplyBaseline(diags, base)
	if len(kept) != 0 || len(stale) != 0 {
		t.Fatalf("identical findings should be absorbed: kept=%v stale=%v", kept, stale)
	}
	grown := append(diags, analysis.Diagnostic{
		Analyzer: "hotlint", Func: "caps/internal/sim.fn", Category: "make", Message: "m3"})
	kept, _ = analysis.ApplyBaseline(grown, base)
	if len(kept) != 3 {
		t.Fatalf("a bucket over baseline must surface all its findings, got %d", len(kept))
	}
	kept, stale = analysis.ApplyBaseline(diags[:1], base)
	if len(kept) != 0 || len(stale) != 2 {
		t.Fatalf("shrunk debt: kept=%v stale=%v", kept, stale)
	}
	missing, err := analysis.LoadBaseline(filepath.Join(t.TempDir(), "absent"))
	if err != nil || len(missing) != 0 {
		t.Fatalf("missing baseline file must load empty: %v %v", missing, err)
	}
}

// TestSuiteCleanOnRepo is the in-tree version of the CI gate: the whole
// module must lint clean (modulo explicit //simcheck:allow suppressions).
func TestSuiteCleanOnRepo(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Check(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestScopes pins the package sets each analyzer audits; widening or
// narrowing a scope should be a conscious diff.
func TestScopes(t *testing.T) {
	cases := []struct {
		a   *analysis.Analyzer
		in  []string
		out []string
	}{
		{analysis.Detlint,
			[]string{"caps/internal/sim", "caps/internal/mem", "caps/internal/stats", "caps/internal/experiments", "caps/internal/memlens", "caps/internal/schedlens", "caps/internal/lens", "caps/internal/lenses", "caps/cmd/capsim", "caps/cmd/capsweep"},
			[]string{"caps/internal/kernels", "caps/internal/analysis"}},
		{analysis.Cyclelint,
			[]string{"caps/internal/sim", "caps/internal/core", "caps/internal/sched", "caps/internal/experiments", "caps/internal/memlens", "caps/internal/schedlens", "caps/internal/lens", "caps/internal/lenses", "caps/cmd/capscope"},
			[]string{"caps/internal/stats", "caps/internal/analysis"}},
		{analysis.Statlint,
			[]string{"caps/internal/mem", "caps/internal/prefetch", "caps/internal/experiments", "caps/internal/memlens", "caps/internal/schedlens", "caps/internal/lens", "caps/internal/lenses", "caps/cmd/capsprof"},
			[]string{"caps/internal/stats", "caps/internal/kernels"}},
	}
	for _, tc := range cases {
		for _, p := range tc.in {
			if !tc.a.Scope(p) {
				t.Errorf("%s should cover %s", tc.a.Name, p)
			}
		}
		for _, p := range tc.out {
			if tc.a.Scope(p) {
				t.Errorf("%s should not cover %s", tc.a.Name, p)
			}
		}
	}
}
