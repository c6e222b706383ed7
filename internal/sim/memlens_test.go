package sim

import (
	"os"
	"testing"
	"time"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/memlens"
	"caps/internal/obs"
)

// Attaching a memlens collector must leave simulated state untouched —
// same stats hash, same cycle count — across the executor configurations
// that matter: serial and parallel ticking, with and without the idle
// fast-forward.
func TestMemLensPreservesSimState(t *testing.T) {
	cfg := obsConfig()
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int, idleSkip bool, ml *memlens.Collector) (uint64, int64) {
		opts := []Option{WithPrefetcher("caps"), WithWorkers(workers)}
		if idleSkip {
			opts = append(opts, WithIdleSkip())
		}
		if ml != nil {
			opts = append(opts, WithMemLens(ml))
		}
		g, err := New(cfg, k, opts...)
		if err != nil {
			t.Fatal(err)
		}
		st, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		g.Close()
		return st.Hash64(), g.Cycle()
	}
	for _, workers := range []int{1, 8} {
		for _, idleSkip := range []bool{false, true} {
			h0, c0 := run(workers, idleSkip, nil)
			h1, c1 := run(workers, idleSkip, memlens.ForConfig(cfg))
			if h1 != h0 || c1 != c0 {
				t.Errorf("workers=%d idleSkip=%v: memlens run diverged: hash %#x/%#x cycle %d/%d",
					workers, idleSkip, h1, h0, c1, c0)
			}
		}
	}
}

// The profile a run produces must reconcile exactly with the run's
// statistics — every accepted access, prefetch lifecycle event and DRAM
// row outcome accounted — and the fold must be identical across executor
// configurations (the staged replay hands the collector the same event
// stream in the same SM order the serial tick produces).
func TestMemLensReconcilesAndIsExecutorInvariant(t *testing.T) {
	cfg := obsConfig()
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	var base *memlens.Profile
	for _, workers := range []int{1, 8} {
		ml := memlens.ForConfig(cfg)
		g, err := New(cfg, k, WithPrefetcher("caps"), WithWorkers(workers), WithIdleSkip(), WithMemLens(ml))
		if err != nil {
			t.Fatal(err)
		}
		st, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		g.Close()
		p := ml.Build(memlens.Meta{Bench: "MM", Prefetcher: "caps", Cycles: g.Cycle()})
		if err := p.Validate(st); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if p.Reconcile.Loads == 0 || p.AddrStructure.ExplainedFrac == 0 {
			t.Errorf("workers=%d: empty fold: loads=%d explained=%.3f",
				workers, p.Reconcile.Loads, p.AddrStructure.ExplainedFrac)
		}
		if workers == 1 {
			base = p
			continue
		}
		if p.Reconcile != base.Reconcile {
			t.Errorf("reconcile block differs across executors:\n  serial   %+v\n  parallel %+v",
				base.Reconcile, p.Reconcile)
		}
		if p.Timeliness.Admits != base.Timeliness.Admits || p.Timeliness.Consumes != base.Timeliness.Consumes {
			t.Errorf("timeliness differs across executors: %+v vs %+v", base.Timeliness, p.Timeliness)
		}
		if p.AddrStructure.ExplainedFrac != base.AddrStructure.ExplainedFrac {
			t.Errorf("θ/Δ fold differs across executors: %.6f vs %.6f",
				base.AddrStructure.ExplainedFrac, p.AddrStructure.ExplainedFrac)
		}
	}
}

// Every benchmark in the suite must produce a profile that passes
// Validate — the acceptance gate that no instrumentation point is lost
// or double-fired anywhere in the fleet of access patterns.
func TestMemLensValidatesAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("16-benchmark sweep in -short mode")
	}
	cfg := obsConfig()
	cfg.MaxInsts = 20_000
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Abbr, func(t *testing.T) {
			t.Parallel()
			ml := memlens.ForConfig(cfg)
			g, err := New(cfg, k, WithPrefetcher("caps"), WithIdleSkip(), WithMemLens(ml))
			if err != nil {
				t.Fatal(err)
			}
			st, err := g.Run()
			if err != nil {
				t.Fatal(err)
			}
			g.Close()
			p := ml.Build(memlens.Meta{Bench: k.Abbr, Prefetcher: "caps", Cycles: g.Cycle()})
			if err := p.Validate(st); err != nil {
				t.Error(err)
			}
		})
	}
}

// BenchmarkMemLensOverhead / BenchmarkNoMemLensOverhead price the
// memlens collector alone against the same run on a metrics-only sink
// (see benchLens); the budget is 2%. The collector's cost is one Consume
// call per memory event — map lookups on bounded maps and fixed-size
// histogram increments, no allocation past the ledger caps.
func BenchmarkMemLensOverhead(b *testing.B) {
	benchLens(b, func(cfg config.GPUConfig, _ *obs.Sink) []Option {
		return []Option{WithMemLens(memlens.ForConfig(cfg))}
	})
}
func BenchmarkNoMemLensOverhead(b *testing.B) { benchLens(b, nil) }

// TestMemLensOverhead is a coarser gate in test form, opt-in via
// CAPS_MEMLENS_OVERHEAD=1 (wall-clock assertions on shared CI machines
// flake). Its baseline attaches no sink, so it prices the collector
// together with the metrics sink the lens brings along. The committed budget is 2%; the assertion allows 10% so the
// test only catches the collector becoming structurally expensive, not
// scheduler noise. Min-of-5 keeps one descheduled run from deciding it.
func TestMemLensOverhead(t *testing.T) {
	if os.Getenv("CAPS_MEMLENS_OVERHEAD") == "" {
		t.Skip("set CAPS_MEMLENS_OVERHEAD=1 to run the wall-clock overhead gate")
	}
	cfg := obsConfig()
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	run := func(attach bool) time.Duration {
		opts := []Option{WithPrefetcher("caps")}
		if attach {
			opts = append(opts, WithMemLens(memlens.ForConfig(cfg)))
		}
		g, err := New(cfg, k, opts...)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now() //simcheck:allow detlint — wall time is the measurement itself
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start) //simcheck:allow detlint — wall time is the measurement itself
	}
	const rounds = 5
	base, profiled := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < rounds; i++ {
		if d := run(false); d < base {
			base = d
		}
		if d := run(true); d < profiled {
			profiled = d
		}
	}
	overhead := float64(profiled-base) / float64(base)
	t.Logf("base %v, profiled %v, overhead %.2f%% (budget 2%%, gate 10%%)", base, profiled, overhead*100)
	if overhead > 0.10 {
		t.Errorf("memlens overhead %.1f%% exceeds the 10%% gate (budget is 2%%)", overhead*100)
	}
}
