package profile

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"caps/internal/lens"
	"caps/internal/obs"
)

// Thresholds bounds how much each metric may regress before Diff reports
// it. Fractional thresholds compare relative change; Abs thresholds
// compare absolute deltas of quantities that are already ratios.
type Thresholds struct {
	// IPCFrac is the maximum tolerated fractional IPC drop
	// ((base-cur)/base), e.g. 0.01 = 1%.
	IPCFrac float64
	// StallFrac is the maximum tolerated absolute increase in any stall
	// bucket's share of total cycles.
	StallFrac float64
	// CoverageAbs / AccuracyAbs are maximum tolerated absolute drops in
	// the prefetch coverage / accuracy ratios.
	CoverageAbs float64
	AccuracyAbs float64
}

// DefaultThresholds matches the CI gate: a 1% IPC drop or a 1-point stall
// share shift fails; the noisier prefetch ratios get 2 points of slack.
func DefaultThresholds() Thresholds {
	return Thresholds{IPCFrac: 0.01, StallFrac: 0.01, CoverageAbs: 0.02, AccuracyAbs: 0.02}
}

// stallShare returns class's fraction of the profile's classified cycles.
func stallShare(p *Profile, class string) float64 {
	var total int64
	for c := obs.CycleClass(0); c < obs.NumCycleClasses; c++ {
		total += p.StallStack[c.String()]
	}
	if total == 0 {
		return 0
	}
	return float64(p.StallStack[class]) / float64(total)
}

// Diff compares cur against base and returns every regression past the
// thresholds. Improvements never regress; only movement in the bad
// direction (IPC/coverage/accuracy down, stall share up) counts. A
// regression's Dimension names the metric ("ipc", "stall_share[idle]").
func Diff(base, cur *Profile, th Thresholds) []lens.Regression {
	regs := diffHeadline(nil, "", headline(base), headline(cur), th)
	for c := obs.CycleClass(0); c < obs.NumCycleClasses; c++ {
		if c == obs.CycleIssue {
			continue // more issue cycles is the good direction
		}
		name := c.String()
		b, v := stallShare(base, name), stallShare(cur, name)
		if v-b > th.StallFrac {
			regs = append(regs, lens.Regression{Dimension: "stall_share[" + name + "]",
				Detail: fmt.Sprintf("%s share of cycles rose %.1f points", name, (v-b)*100), Base: b, Cur: v})
		}
	}
	return regs
}

// headline is a profile's bench-report row, as far as the gate reads it:
// profiles and reports share one headline comparison.
func headline(p *Profile) BenchMetrics {
	return BenchMetrics{IPC: p.IPC, Coverage: p.Coverage, Accuracy: p.Accuracy}
}

// diffHeadline appends the headline regressions (IPC, prefetch coverage
// and accuracy) to regs, each Dimension prefixed with prefix.
func diffHeadline(regs []lens.Regression, prefix string, base, cur BenchMetrics, th Thresholds) []lens.Regression {
	if base.IPC > 0 && (base.IPC-cur.IPC)/base.IPC > th.IPCFrac {
		regs = append(regs, lens.Regression{Dimension: prefix + "ipc",
			Detail: fmt.Sprintf("IPC dropped %.1f%%", (base.IPC-cur.IPC)/base.IPC*100), Base: base.IPC, Cur: cur.IPC})
	}
	regs = lens.Drop(regs, prefix+"coverage", "prefetch coverage", base.Coverage, cur.Coverage, th.CoverageAbs)
	return lens.Drop(regs, prefix+"accuracy", "prefetch accuracy", base.Accuracy, cur.Accuracy, th.AccuracyAbs)
}

// BenchMetrics is one benchmark's row in BENCH_caps.json.
type BenchMetrics struct {
	IPC             float64 `json:"ipc"`
	Coverage        float64 `json:"coverage"`
	Accuracy        float64 `json:"accuracy"`
	EarlyEvictRatio float64 `json:"early_evict_ratio"`
	MeanDistance    float64 `json:"mean_distance"`
	TotalCycles     int64   `json:"total_cycles"`
	Instructions    int64   `json:"instructions"`
}

// BenchReport is the machine-readable perf trajectory (BENCH_caps.json):
// headline metrics for every benchmark under one prefetcher/scheduler
// configuration. capsprof bench-diff gates against it.
type BenchReport struct {
	Prefetcher string                  `json:"prefetcher"`
	Scheduler  string                  `json:"scheduler"`
	MaxInsts   int64                   `json:"max_insts"`
	Benchmarks map[string]BenchMetrics `json:"benchmarks"`
}

// WriteFile writes the report to path, keys sorted by encoding/json.
func (r *BenchReport) WriteFile(path string) error { return lens.WriteFile(path, r) }

// diffBench compares a profile against the matching benchmark row of a
// bench report (stall stacks are absent from reports, so only headline
// metrics are gated).
func diffBench(base *BenchReport, cur *Profile, th Thresholds) ([]lens.Regression, error) {
	row, ok := base.Benchmarks[cur.Meta.Bench]
	if !ok {
		return nil, fmt.Errorf("profile: baseline report has no benchmark %q", cur.Meta.Bench)
	}
	return diffHeadline(nil, "", row, headline(cur), th), nil
}

// diffBenchReports compares two bench reports benchmark by benchmark over
// their common set; each Dimension is prefixed with the benchmark
// ("MM.ipc").
func diffBenchReports(base, cur *BenchReport, th Thresholds) []lens.Regression {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks { //simcheck:allow detlint keys sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	var regs []lens.Regression
	for _, name := range names {
		if b, ok := base.Benchmarks[name]; ok {
			regs = diffHeadline(regs, name+".", b, cur.Benchmarks[name], th)
		}
	}
	return regs
}

// GateBench is capsprof bench-diff: it gates the document at curPath — a
// bench report or a profile — against the bench report at basePath. An
// error is an input that cannot be compared: unreadable, a profile as the
// base, or a profile of a benchmark the report does not list.
func GateBench(basePath, curPath string, th Thresholds) ([]lens.Regression, error) {
	base, err := readBaseline(basePath)
	if err != nil {
		return nil, err
	}
	if base.Bench == nil {
		return nil, fmt.Errorf("%s: a profile cannot baseline a bench report (pass the bench report first)", basePath)
	}
	cur, err := readBaseline(curPath)
	if err != nil {
		return nil, err
	}
	if cur.Bench != nil {
		return diffBenchReports(base.Bench, cur.Bench, th), nil
	}
	return diffBench(base.Bench, cur.Profile, th)
}

// baseline is either a full Profile or a BenchReport row set — the two
// document shapes capsprof bench-diff accepts. Exactly one field is
// non-nil.
type baseline struct {
	Profile *Profile
	Bench   *BenchReport
}

// readBaseline sniffs path's document shape: profiles carry a "meta"
// object, bench reports a "benchmarks" object.
func readBaseline(path string) (baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return baseline{}, err
	}
	var probe struct {
		Meta       *json.RawMessage `json:"meta"`
		Benchmarks *json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return baseline{}, fmt.Errorf("%s: not a JSON document: %w", path, err)
	}
	switch {
	case probe.Meta != nil:
		var p Profile
		if err := json.Unmarshal(data, &p); err != nil {
			return baseline{}, fmt.Errorf("%s: parse profile: %w", path, err)
		}
		return baseline{Profile: &p}, nil
	case probe.Benchmarks != nil:
		var r BenchReport
		if err := json.Unmarshal(data, &r); err != nil {
			return baseline{}, fmt.Errorf("%s: parse bench report: %w", path, err)
		}
		return baseline{Bench: &r}, nil
	default:
		return baseline{}, fmt.Errorf("%s: neither a profile (no \"meta\") nor a bench report (no \"benchmarks\")", path)
	}
}
