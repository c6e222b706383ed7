package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/memlens"
	"caps/internal/obs"
	"caps/internal/schedlens"
)

// Attaching a schedlens collector must leave simulated state untouched —
// same stats hash, same cycle count — across the executor configurations
// that matter: serial and parallel ticking, with and without the idle
// fast-forward.
func TestSchedLensPreservesSimState(t *testing.T) {
	cfg := obsConfig()
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int, idleSkip bool, sl *schedlens.Collector) (uint64, int64) {
		opts := []Option{WithPrefetcher("caps"), WithWorkers(workers)}
		if idleSkip {
			opts = append(opts, WithIdleSkip())
		}
		if sl != nil {
			opts = append(opts, WithSchedLens(sl))
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
			h1, c1 := run(workers, idleSkip, schedlens.ForConfig(cfg))
			if h1 != h0 || c1 != c0 {
				t.Errorf("workers=%d idleSkip=%v: schedlens run diverged: hash %#x/%#x cycle %d/%d",
					workers, idleSkip, h1, h0, c1, c0)
			}
		}
	}
}

// The profile must reconcile counter-exactly with the run's statistics,
// and the built profile must be byte-identical across every executor
// configuration — every schedlens emission fires at a state-transition
// site the staged replay visits in the same SM order the serial tick
// does, so not just the counters but the full JSON encoding (timelines,
// histograms, per-SM vectors) must match bit for bit.
func TestSchedLensReconcilesAndIsExecutorInvariant(t *testing.T) {
	cfg := obsConfig()
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	var base []byte
	for _, ex := range []struct {
		workers  int
		idleSkip bool
	}{{1, false}, {1, true}, {8, false}, {8, true}} {
		sl := schedlens.ForConfig(cfg)
		opts := []Option{WithPrefetcher("caps"), WithWorkers(ex.workers), WithSchedLens(sl)}
		if ex.idleSkip {
			opts = append(opts, WithIdleSkip())
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
		p := sl.Build(schedlens.Meta{Bench: "MM", Prefetcher: "caps", Scheduler: "pas", Cycles: g.Cycle()})
		if err := p.Validate(st); err != nil {
			t.Errorf("workers=%d idleSkip=%v: %v", ex.workers, ex.idleSkip, err)
		}
		if p.Timelines.Retires == 0 || p.LeadingWarp.Anchored == 0 {
			t.Errorf("workers=%d idleSkip=%v: empty fold: retires=%d anchored=%d",
				ex.workers, ex.idleSkip, p.Timelines.Retires, p.LeadingWarp.Anchored)
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = enc
			continue
		}
		if !bytes.Equal(enc, base) {
			t.Errorf("workers=%d idleSkip=%v: profile bytes differ from serial/no-skip build (%d vs %d bytes)",
				ex.workers, ex.idleSkip, len(enc), len(base))
		}
	}
}

// Every benchmark in the suite must produce a profile that passes
// Validate — the acceptance gate that no scheduler or CTA transition is
// lost or double-fired anywhere in the fleet of access patterns.
func TestSchedLensValidatesAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("16-benchmark sweep in -short mode")
	}
	cfg := obsConfig()
	cfg.MaxInsts = 20_000
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Abbr, func(t *testing.T) {
			t.Parallel()
			sl := schedlens.ForConfig(cfg)
			g, err := New(cfg, k, WithPrefetcher("caps"), WithIdleSkip(), WithSchedLens(sl))
			if err != nil {
				t.Fatal(err)
			}
			st, err := g.Run()
			if err != nil {
				t.Fatal(err)
			}
			g.Close()
			p := sl.Build(schedlens.Meta{Bench: k.Abbr, Prefetcher: "caps", Scheduler: "pas", Cycles: g.Cycle()})
			if err := p.Validate(st); err != nil {
				t.Error(err)
			}
		})
	}
}

// The three stream consumers — the bounded trace ring, memlens and
// schedlens — compose on a single sink: attached together they must
// leave the simulated state untouched and each must still fold its own
// complete profile. This is the regression gate for the shared
// auto-sink arming in New (capsim -trace -memlens -schedlens).
func TestSchedLensComposesWithTraceAndMemLens(t *testing.T) {
	cfg := obsConfig()
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	bare := func() (uint64, int64) {
		g, err := New(cfg, k, WithPrefetcher("caps"))
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
	h0, c0 := bare()

	snk := NewSink(cfg, true, 0)
	ml := memlens.ForConfig(cfg)
	sl := schedlens.ForConfig(cfg)
	snk.Attach(ml)
	snk.Attach(sl)
	g, err := New(cfg, k, WithPrefetcher("caps"), WithObs(snk))
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	if st.Hash64() != h0 || g.Cycle() != c0 {
		t.Errorf("trace+memlens+schedlens run diverged from bare run: hash %#x/%#x cycle %d/%d",
			st.Hash64(), h0, g.Cycle(), c0)
	}
	mp := ml.Build(memlens.Meta{Bench: "MM", Prefetcher: "caps", Cycles: g.Cycle()})
	if err := mp.Validate(st); err != nil {
		t.Errorf("memlens under shared sink: %v", err)
	}
	sp := sl.Build(schedlens.Meta{Bench: "MM", Prefetcher: "caps", Scheduler: "pas", Cycles: g.Cycle()})
	if err := sp.Validate(st); err != nil {
		t.Errorf("schedlens under shared sink: %v", err)
	}
	if sp.Timelines.Retires == 0 {
		t.Error("schedlens folded no CTA retires under the shared sink")
	}
}

// BenchmarkSchedLensOverhead / BenchmarkNoSchedLensOverhead price the
// schedlens collector alone against the same run on a metrics-only sink
// (see benchLens); the budget is 2%. The collector's cost is one Consume
// call per subscribed event — array increments, a one-entry ledger cache
// in front of a bounded map, fixed-size histogram buckets, no allocation
// past the CTA-ledger cap.
func BenchmarkSchedLensOverhead(b *testing.B) {
	benchLens(b, func(cfg config.GPUConfig, _ *obs.Sink) []Option {
		return []Option{WithSchedLens(schedlens.ForConfig(cfg))}
	})
}
func BenchmarkNoSchedLensOverhead(b *testing.B) { benchLens(b, nil) }

// TestSchedLensOverhead is a coarser gate in test form, opt-in via
// CAPS_SCHEDLENS_OVERHEAD=1 (wall-clock assertions on shared CI machines
// flake). Its baseline attaches no sink, so it prices the collector
// together with the metrics sink the lens brings along. The committed budget is 2%; the assertion allows 10% so the
// test only catches the collector becoming structurally expensive, not
// scheduler noise. Min-of-5 keeps one descheduled run from deciding it.
func TestSchedLensOverhead(t *testing.T) {
	if os.Getenv("CAPS_SCHEDLENS_OVERHEAD") == "" {
		t.Skip("set CAPS_SCHEDLENS_OVERHEAD=1 to run the wall-clock overhead gate")
	}
	cfg := obsConfig()
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	run := func(attach bool) time.Duration {
		opts := []Option{WithPrefetcher("caps")}
		if attach {
			opts = append(opts, WithSchedLens(schedlens.ForConfig(cfg)))
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
		t.Errorf("schedlens overhead %.1f%% exceeds the 10%% gate (budget is 2%%)", overhead*100)
	}
}
