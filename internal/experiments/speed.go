package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"caps/internal/config"
	"caps/internal/hostprof"
	"caps/internal/kernels"
	"caps/internal/lens"
	"caps/internal/sim"
)

// SpeedEntry is one benchmark's base-vs-tuned wall-clock pairing. Cycles
// and Instructions are recorded once because the harness REQUIRES them to
// be identical across the pair — a tuned run that simulates a different
// machine history is a correctness bug, not a speedup.
type SpeedEntry struct {
	Bench        string  `json:"bench"`
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	BaseMS       float64 `json:"base_ms"`
	TunedMS      float64 `json:"tuned_ms"`
	Speedup      float64 `json:"speedup"`

	// Host is the tuned run's hostprof breakdown (phase milliseconds,
	// per-worker utilization, SM imbalance) — the "why"
	// behind the speedup number. Absolute milliseconds vary by machine;
	// the shares and ratios are what speed-diff readers compare.
	Host *hostprof.Breakdown `json:"host,omitempty"`
}

// SpeedReport is the committed BENCH_speed.json artifact: per-benchmark
// wall-clock for the serial configuration (workers=1) against the tuned
// one, plus the aggregate speedup. Both sides run the per-SM
// fast-forward, so the ratio isolates the parallel executor. `capsprof speed-diff`
// compares the Speedup columns of two reports, so the gate is robust to
// the absolute machine speed of whoever regenerates the file.
type SpeedReport struct {
	Workers  int   `json:"workers"`
	MaxInsts int64 `json:"max_insts"`

	// Host records the machine the report was generated on (go version,
	// CPU count, GOMAXPROCS, ...). Speedups are same-process ratios, so a
	// context mismatch doesn't invalidate a diff — but it explains one:
	// `capsprof speed-diff` prints HostMismatch warnings beside any gate
	// failure. Older reports lack the field (nil).
	Host *hostprof.Context `json:"host,omitempty"`

	BaseMS  float64      `json:"base_ms"`
	TunedMS float64      `json:"tuned_ms"`
	Speedup float64      `json:"speedup"`
	Entries []SpeedEntry `json:"entries"`
}

// timedRun executes one benchmark on the paper's CAPS configuration and
// returns its final cycle/instruction counts plus the wall-clock cost.
// hp, when non-nil, self-profiles the run (sim.WithHostProf); the caller
// builds the breakdown from it afterwards.
func timedRun(cfg config.GPUConfig, bench string, hp *hostprof.Profiler, opts ...sim.Option) (cycles, insts int64, ms float64, err error) {
	k, err := kernels.ByAbbr(bench)
	if err != nil {
		return 0, 0, 0, err
	}
	opts = append(opts[:len(opts):len(opts)], sim.WithPrefetcher("caps"))
	if hp != nil {
		opts = append(opts, sim.WithHostProf(hp))
	}
	g, err := sim.New(cfg, k, opts...)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("experiments: %s: %w", bench, err)
	}
	start := time.Now() //simcheck:allow detlint — wall time is the measurement here, it never reaches sim state
	st, err := g.Run()
	ms = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("experiments: %s: %w", bench, err)
	}
	return st.Cycles, st.Instructions, ms, nil
}

// BuildSpeedReport times every benchmark twice — once serial (workers=1),
// once with the flag-selected tuning — and verifies the
// pair finished with bit-identical cycle and instruction counts before
// recording the speedup. benches empty means the full Table IV set.
func BuildSpeedReport(cfg config.GPUConfig, benches []string, f *SimFlags) (*SpeedReport, error) {
	if len(benches) == 0 {
		for _, k := range kernels.All() {
			benches = append(benches, k.Abbr)
		}
	}
	cfg = config.Derive(cfg, config.Overrides{Scheduler: SchedulerFor("caps")})
	host := hostprof.CaptureContext(f.Workers, true)
	rep := &SpeedReport{Workers: f.Workers, MaxInsts: cfg.MaxInsts, Host: &host}
	for _, b := range benches {
		bc, bi, bms, err := timedRun(cfg, b, nil)
		if err != nil {
			return nil, err
		}
		// Self-profile only the tuned run: the breakdown explains where the
		// parallel executor spends its time; the serial leg is the yardstick
		// and stays unobserved.
		hp := hostprof.New(hostprof.DefaultSampleEvery)
		tc, ti, tms, err := timedRun(cfg, b, hp, f.SimOptions()...)
		if err != nil {
			return nil, err
		}
		if bc != tc || bi != ti {
			return nil, fmt.Errorf("experiments: %s: tuned run diverged from serial: cycles %d vs %d, instructions %d vs %d (workers=%d)",
				b, bc, tc, bi, ti, f.Workers)
		}
		e := SpeedEntry{Bench: b, Cycles: bc, Instructions: bi, BaseMS: bms, TunedMS: tms,
			Host: hp.Build(b, "caps").Breakdown()}
		if tms > 0 {
			e.Speedup = bms / tms
		}
		rep.Entries = append(rep.Entries, e)
		rep.BaseMS += bms
		rep.TunedMS += tms
	}
	if rep.TunedMS > 0 {
		rep.Speedup = rep.BaseMS / rep.TunedMS
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
// regression: a benchmark (or the aggregate) whose speedup fell more than
// tolerance (a fraction, e.g. 0.2) below the baseline's. Speedups are
// ratios of a same-process pair, so the comparison survives the two
// reports having been generated on machines of different absolute speed.
// Benchmarks present only in the baseline are also reported.
func DiffSpeed(base, cur *SpeedReport, tolerance float64) []string {
	var msgs []string
	curBy := make(map[string]SpeedEntry, len(cur.Entries))
	for _, e := range cur.Entries {
		curBy[e.Bench] = e
	}
	for _, b := range base.Entries {
		c, ok := curBy[b.Bench]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("%s: present in baseline but missing from current report", b.Bench))
			continue
		}
		if m := diffSpeedup(b.Bench, b.Speedup, c.Speedup, tolerance); m != "" {
			msgs = append(msgs, m)
		}
	}
	if m := diffSpeedup("aggregate", base.Speedup, cur.Speedup, tolerance); m != "" {
		msgs = append(msgs, m)
	}
	return msgs
}

// diffSpeedup gates one speedup pair, returning "" when it passes. A
// baseline speedup that is not finite-positive (zero wall-clock pair,
// hand-edited report, NaN from a 0/0) can't anchor a ratio gate: it is
// surfaced as its own message — never compared, so no NaN/Inf propagates
// into the threshold arithmetic. A non-finite current value against a
// healthy baseline is always a regression.
func diffSpeedup(name string, base, cur, tolerance float64) string {
	if !isFinitePos(base) {
		return fmt.Sprintf("%s: baseline speedup %v is not comparable (zero or non-finite wall clock); gate skipped", name, base)
	}
	if !isFinitePos(cur) {
		return fmt.Sprintf("%s: current speedup %v is not comparable (zero or non-finite wall clock)", name, cur)
	}
	if cur < base*(1-tolerance) {
		return fmt.Sprintf("%s: speedup regressed %.2fx -> %.2fx (%.0f%% tolerance)",
			name, base, cur, tolerance*100)
	}
	return ""
}

// isFinitePos reports whether v is a usable speedup: finite and > 0.
func isFinitePos(v float64) bool {
	return v > 0 && !math.IsInf(v, 1) && !math.IsNaN(v)
}

// HostMismatch compares the host contexts of two speed reports and returns
// one warning per differing dimension. A mismatch doesn't fail the gate —
// speedups are same-process ratios — but it is the first place to look when
// one trips. Reports predating the Host field produce a single warning.
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
