package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"caps/internal/config"
	"caps/internal/hostprof"
	"caps/internal/kernels"
	"caps/internal/lens"
	"caps/internal/sim"
)

// speedRepeats is how many round-robin runs BuildSpeedReport times per
// benchmark; each entry records the median.
const speedRepeats = 3

// SpeedEntry is one benchmark's serial wall-clock record. Cycles and
// Instructions pin what was timed: every repeat must reproduce them, and
// `capsprof speed-diff` fails when they differ from the baseline's, since a
// run that simulates a different machine history is not comparable.
type SpeedEntry struct {
	Bench        string  `json:"bench"`
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	WallMS       float64 `json:"wall_ms"` // median of speedRepeats runs

	// Host is the median run's hostprof breakdown (phase milliseconds, the
	// SM ticks' utilization, SM imbalance): where the wall time went.
	Host *hostprof.Breakdown `json:"host,omitempty"`
}

// SpeedReport is the committed BENCH_speed.json artifact: per-benchmark
// serial wall-clock on the paper's CAPS configuration, plus their sum.
// `capsprof speed-diff` compares the wall times of two reports, so the
// gate is only meaningful between reports from comparable hosts.
type SpeedReport struct {
	MaxInsts int64 `json:"max_insts"`

	// Host records the machine the report was generated on (go version,
	// CPU count, GOMAXPROCS, ...). `capsprof speed-diff` prints
	// HostMismatch warnings beside the gate: a wall-time regression
	// between different hosts may be the host's. Older reports lack the
	// field (nil).
	Host *hostprof.Context `json:"host,omitempty"`

	WallMS  float64      `json:"wall_ms"`
	Entries []SpeedEntry `json:"entries"`
}

// speedRun is one timed run's outcome.
type speedRun struct {
	cycles, insts int64
	ms            float64
	host          *hostprof.Breakdown
}

// timedRun executes one benchmark on the paper's CAPS configuration under
// a host profiler and returns its final cycle/instruction counts, its
// wall-clock cost and the profiler's breakdown.
func timedRun(cfg config.GPUConfig, bench string) (speedRun, error) {
	k, err := kernels.ByAbbr(bench)
	if err != nil {
		return speedRun{}, err
	}
	hp := hostprof.New(hostprof.DefaultSampleEvery)
	g, err := sim.New(cfg, k, sim.WithPrefetcher("caps"), sim.WithHostProf(hp))
	if err != nil {
		return speedRun{}, fmt.Errorf("experiments: %s: %w", bench, err)
	}
	start := time.Now() //simcheck:allow detlint — wall time is the measurement here, it never reaches sim state
	st, err := g.Run()
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return speedRun{}, fmt.Errorf("experiments: %s: %w", bench, err)
	}
	return speedRun{st.Cycles, st.Instructions, ms, hp.Build(bench, "caps").Breakdown()}, nil
}

// BuildSpeedReport times every benchmark speedRepeats times, round-robin
// so slow drift on the host spreads over all benchmarks, and records each
// benchmark's median run. Every repeat must finish with the same cycle and
// instruction counts. benches empty means the full Table IV set.
func BuildSpeedReport(cfg config.GPUConfig, benches []string) (*SpeedReport, error) {
	if len(benches) == 0 {
		for _, k := range kernels.All() {
			benches = append(benches, k.Abbr)
		}
	}
	cfg = config.Derive(cfg, config.Overrides{Scheduler: SchedulerFor("caps")})
	runs := make([][]speedRun, len(benches))
	for rep := 0; rep < speedRepeats; rep++ {
		for i, b := range benches {
			r, err := timedRun(cfg, b)
			if err != nil {
				return nil, err
			}
			if rep > 0 && (r.cycles != runs[i][0].cycles || r.insts != runs[i][0].insts) {
				return nil, fmt.Errorf("experiments: %s: repeat %d diverged: cycles %d vs %d, instructions %d vs %d",
					b, rep, r.cycles, runs[i][0].cycles, r.insts, runs[i][0].insts)
			}
			runs[i] = append(runs[i], r)
		}
	}
	host := hostprof.CaptureContext(1, true)
	rep := &SpeedReport{MaxInsts: cfg.MaxInsts, Host: &host}
	for i, b := range benches {
		rs := runs[i]
		sort.Slice(rs, func(x, y int) bool { return rs[x].ms < rs[y].ms })
		m := rs[len(rs)/2]
		rep.Entries = append(rep.Entries, SpeedEntry{Bench: b, Cycles: m.cycles, Instructions: m.insts, WallMS: m.ms, Host: m.host})
		rep.WallMS += m.ms
	}
	return rep, nil
}

// WriteFile persists the report as indented JSON (the committed artifact).
func (r *SpeedReport) WriteFile(path string) error { return lens.WriteFile(path, r) }

// ReadSpeedReport loads a BENCH_speed.json produced by WriteFile.
func ReadSpeedReport(path string) (*SpeedReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r SpeedReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// DiffSpeed compares two speed reports and returns one message per
// regression: a benchmark whose cycles or instructions differ from the
// baseline's, or whose wall time rose more than tolerance (a fraction,
// e.g. 0.2) above the baseline's. Benchmarks present only in the baseline
// are also reported.
func DiffSpeed(base, cur *SpeedReport, tolerance float64) []string {
	var msgs []string
	curBy := make(map[string]SpeedEntry, len(cur.Entries))
	for _, e := range cur.Entries {
		curBy[e.Bench] = e
	}
	for _, b := range base.Entries {
		c, ok := curBy[b.Bench]
		switch {
		case !ok:
			msgs = append(msgs, fmt.Sprintf("%s: present in baseline but missing from current report", b.Bench))
		case c.Cycles != b.Cycles || c.Instructions != b.Instructions:
			msgs = append(msgs, fmt.Sprintf("%s: simulated cycles/instructions %d/%d differ from the baseline's %d/%d",
				b.Bench, c.Cycles, c.Instructions, b.Cycles, b.Instructions))
		default:
			if m := diffWall(b.Bench, b.WallMS, c.WallMS, tolerance); m != "" {
				msgs = append(msgs, m)
			}
		}
	}
	return msgs
}

// diffWall gates one wall-time pair, returning "" when it passes. A
// baseline wall time that is not finite-positive (hand-edited report,
// a report from before wall times were recorded) can't anchor a ratio
// gate: it is surfaced as its own message — never compared, so no NaN/Inf
// propagates into the threshold arithmetic. A non-finite current value
// against a healthy baseline is always a regression.
func diffWall(name string, base, cur, tolerance float64) string {
	if !isFinitePos(base) {
		return fmt.Sprintf("%s: baseline wall time %v ms is not comparable (zero or non-finite); gate skipped", name, base)
	}
	if !isFinitePos(cur) {
		return fmt.Sprintf("%s: current wall time %v ms is not comparable (zero or non-finite)", name, cur)
	}
	if cur > base*(1+tolerance) {
		return fmt.Sprintf("%s: wall time rose %.1f ms -> %.1f ms (+%.0f%%, %.0f%% tolerance)",
			name, base, cur, (cur/base-1)*100, tolerance*100)
	}
	return ""
}

// isFinitePos reports whether v is a usable wall time: finite and > 0.
func isFinitePos(v float64) bool {
	return v > 0 && !math.IsInf(v, 1) && !math.IsNaN(v)
}

// HostMismatch compares the host contexts of two speed reports and returns
// one warning per differing dimension. A mismatch doesn't fail the gate,
// but it is the first place to look when one trips: wall times from
// different hosts differ for the host's reasons. Reports predating the
// Host field produce a single warning.
func HostMismatch(base, cur *SpeedReport) []string {
	switch {
	case base.Host == nil && cur.Host == nil:
		return nil
	case base.Host == nil:
		return []string{"baseline report has no host context (generated before hostprof)"}
	case cur.Host == nil:
		return []string{"current report has no host context (generated before hostprof)"}
	}
	return hostprof.ContextMismatch(*base.Host, *cur.Host)
}
