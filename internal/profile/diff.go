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

// Regression is one metric that moved past its threshold.
type Regression struct {
	Metric  string  // e.g. "ipc", "stall_share[mem_structural]"
	Base    float64 // baseline value
	Cur     float64 // current value
	Allowed float64 // the threshold that was exceeded
}

func (r Regression) String() string {
	return fmt.Sprintf("%-30s base=%.4f cur=%.4f (allowed %.4f)", r.Metric, r.Base, r.Cur, r.Allowed)
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
// direction (IPC/coverage/accuracy down, stall share up) counts.
func Diff(base, cur *Profile, th Thresholds) []Regression {
	var out []Regression
	out = append(out, diffHeadline("", headline(base), headline(cur), th)...)
	for c := obs.CycleClass(0); c < obs.NumCycleClasses; c++ {
		if c == obs.CycleIssue {
			continue // more issue cycles is the good direction
		}
		name := c.String()
		b, v := stallShare(base, name), stallShare(cur, name)
		if v-b > th.StallFrac {
			out = append(out, Regression{Metric: "stall_share[" + name + "]", Base: b, Cur: v, Allowed: th.StallFrac})
		}
	}
	return out
}

// headlineMetrics are the scalar metrics shared by profiles and bench
// report entries, so one comparison covers both baseline formats.
type headlineMetrics struct {
	ipc, coverage, accuracy float64
}

func headline(p *Profile) headlineMetrics {
	return headlineMetrics{ipc: p.IPC, coverage: p.Coverage, accuracy: p.Accuracy}
}

func diffHeadline(prefix string, base, cur headlineMetrics, th Thresholds) []Regression {
	var out []Regression
	if base.ipc > 0 && (base.ipc-cur.ipc)/base.ipc > th.IPCFrac {
		out = append(out, Regression{Metric: prefix + "ipc", Base: base.ipc, Cur: cur.ipc, Allowed: th.IPCFrac})
	}
	if base.coverage-cur.coverage > th.CoverageAbs {
		out = append(out, Regression{Metric: prefix + "coverage", Base: base.coverage, Cur: cur.coverage, Allowed: th.CoverageAbs})
	}
	if base.accuracy-cur.accuracy > th.AccuracyAbs {
		out = append(out, Regression{Metric: prefix + "accuracy", Base: base.accuracy, Cur: cur.accuracy, Allowed: th.AccuracyAbs})
	}
	return out
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
// configuration. capsprof diff accepts it as a baseline.
type BenchReport struct {
	Prefetcher string                  `json:"prefetcher"`
	Scheduler  string                  `json:"scheduler"`
	MaxInsts   int64                   `json:"max_insts"`
	Benchmarks map[string]BenchMetrics `json:"benchmarks"`
}

// WriteFile writes the report to path, keys sorted by encoding/json.
func (r *BenchReport) WriteFile(path string) error { return lens.WriteFile(path, r) }

func benchHeadline(m BenchMetrics) headlineMetrics {
	return headlineMetrics{ipc: m.IPC, coverage: m.Coverage, accuracy: m.Accuracy}
}

// DiffBench compares a profile against the matching benchmark row of a
// bench report (stall stacks are absent from reports, so only headline
// metrics are gated).
func DiffBench(base *BenchReport, cur *Profile, th Thresholds) ([]Regression, error) {
	row, ok := base.Benchmarks[cur.Meta.Bench]
	if !ok {
		return nil, fmt.Errorf("profile: baseline report has no benchmark %q", cur.Meta.Bench)
	}
	return diffHeadline("", benchHeadline(row), headline(cur), th), nil
}

// DiffBenchReports compares two bench reports benchmark by benchmark over
// their common set.
func DiffBenchReports(base, cur *BenchReport, th Thresholds) []Regression {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks { //simcheck:allow detlint keys sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Regression
	for _, name := range names {
		b, ok := base.Benchmarks[name]
		if !ok {
			continue
		}
		out = append(out, diffHeadline(name+".", benchHeadline(b), benchHeadline(cur.Benchmarks[name]), th)...)
	}
	return out
}

// Baseline is either a full Profile or a BenchReport row set — the two
// document shapes capsprof diff accepts. Exactly one field is non-nil.
type Baseline struct {
	Profile *Profile
	Bench   *BenchReport
}

// ReadBaseline sniffs path's document shape: profiles carry a "meta"
// object, bench reports a "benchmarks" object.
func ReadBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, err
	}
	var probe struct {
		Meta       *json.RawMessage `json:"meta"`
		Benchmarks *json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return Baseline{}, fmt.Errorf("%s: not a JSON document: %w", path, err)
	}
	switch {
	case probe.Meta != nil:
		var p Profile
		if err := json.Unmarshal(data, &p); err != nil {
			return Baseline{}, fmt.Errorf("%s: parse profile: %w", path, err)
		}
		return Baseline{Profile: &p}, nil
	case probe.Benchmarks != nil:
		var r BenchReport
		if err := json.Unmarshal(data, &r); err != nil {
			return Baseline{}, fmt.Errorf("%s: parse bench report: %w", path, err)
		}
		return Baseline{Bench: &r}, nil
	default:
		return Baseline{}, fmt.Errorf("%s: neither a profile (no \"meta\") nor a bench report (no \"benchmarks\")", path)
	}
}
