package profile

import (
	"math"
	"strings"
	"testing"
)

// Edge-case coverage for the diff gate: the comparisons capsprof runs
// against arbitrary profile files must stay total — no NaN, no Inf, no
// panic — whatever shape the two profiles are in.

// emptyProfile is what a run profiled without any collector activity looks
// like: metadata only, every counter zero, no ledgers.
func emptyProfile() *Profile {
	return &Profile{Meta: Meta{Bench: "MM", Prefetcher: "none", Scheduler: "tlv"}}
}

func assertFinite(t *testing.T, regs []Regression) {
	t.Helper()
	for _, r := range regs {
		for name, v := range map[string]float64{"base": r.Base, "cur": r.Cur, "allowed": r.Allowed} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("regression %s has non-finite %s value %v", r.Metric, name, v)
			}
		}
	}
}

func TestDiffEmptyProfiles(t *testing.T) {
	// Empty vs empty: nothing moved, nothing to report, no 0/0 blowups.
	regs := Diff(emptyProfile(), emptyProfile(), DefaultThresholds())
	assertFinite(t, regs)
	if len(regs) != 0 {
		t.Fatalf("two empty profiles produced regressions: %v", regs)
	}
}

func TestDiffEmptyBase(t *testing.T) {
	// A zero-IPC base cannot regress fractionally (the gate divides by
	// base); a populated current side is an improvement, not a report.
	c, st := feed(t)
	cur, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	regs := Diff(emptyProfile(), cur, DefaultThresholds())
	assertFinite(t, regs)
	for _, r := range regs {
		if r.Metric == "ipc" {
			t.Errorf("zero-IPC base produced an ipc regression: %+v", r)
		}
	}
}

func TestDiffEmptyCurrent(t *testing.T) {
	// A populated base against an empty current: headline drops must be
	// reported with finite values, and stall shares (0/0 on the empty
	// side) must not divide by zero.
	c, st := feed(t)
	base, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	// feed's stats carry no prefetch counters, so pin non-zero ratios to
	// make their disappearance a reportable drop.
	base.Coverage, base.Accuracy = 0.5, 0.9
	regs := Diff(base, emptyProfile(), DefaultThresholds())
	assertFinite(t, regs)
	want := map[string]bool{"ipc": true, "coverage": true, "accuracy": true}
	for _, r := range regs {
		delete(want, r.Metric)
	}
	if len(want) != 0 {
		t.Errorf("missing expected headline regressions %v in %v", want, regs)
	}
}

func TestDiffPCLedgerOneSideOnly(t *testing.T) {
	// Per-PC ledgers are informational, not gated: a profile whose PCs
	// exist on only one side must diff cleanly on identical headline
	// metrics.
	c, st := feed(t)
	base, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	cur := *base
	cur.PCs = nil
	cur.CTAs = nil
	regs := Diff(base, &cur, DefaultThresholds())
	assertFinite(t, regs)
	if len(regs) != 0 {
		t.Fatalf("dropping the PC ledger alone regressed: %v", regs)
	}
	// And symmetrically with the ledger only on the current side.
	if regs := Diff(&cur, base, DefaultThresholds()); len(regs) != 0 {
		t.Fatalf("adding a PC ledger alone regressed: %v", regs)
	}
}

func TestDiffZeroCycleRun(t *testing.T) {
	// A zero-cycle run (simulation exited before its first cycle) has an
	// empty stall stack; share computations must treat it as all-zero.
	c, st := feed(t)
	base, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	zero := &Profile{Meta: base.Meta, StallStack: map[string]int64{}}
	regs := Diff(base, zero, DefaultThresholds())
	assertFinite(t, regs)
	for _, r := range regs {
		if strings.HasPrefix(r.Metric, "stall_share") {
			t.Errorf("zero-cycle run produced a stall-share regression: %+v", r)
		}
	}
	assertFinite(t, Diff(zero, base, DefaultThresholds()))
}

func TestDiffBenchMissingBenchmark(t *testing.T) {
	c, st := feed(t)
	cur, err := c.Build(testMeta(), st)
	if err != nil {
		t.Fatal(err)
	}
	base := &BenchReport{Benchmarks: map[string]BenchMetrics{"OTHER": {IPC: 1}}}
	if _, err := DiffBench(base, cur, DefaultThresholds()); err == nil {
		t.Fatal("DiffBench accepted a baseline without the profile's benchmark")
	}
}
