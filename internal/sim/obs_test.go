package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/obs"
	"caps/internal/profile"
	"caps/internal/stats"
)

// obsConfig is a small machine that still exercises CAPS end to end: enough
// instructions for leading warps to train DIST and for trailing warps to
// consume prefetched lines.
func obsConfig() config.GPUConfig {
	cfg := config.Default()
	cfg.NumSMs = 2
	cfg.Scheduler = config.SchedPAS
	cfg.MaxInsts = 50_000
	cfg.MaxCycle = 3_000_000
	return cfg
}

func runWithSink(t *testing.T, cfg config.GPUConfig, snk *obs.Sink) (*GPU, *stats.Sim) {
	t.Helper()
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg, k, WithPrefetcher("caps"), WithObs(snk))
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	return g, st
}

// TestGoldenChromeTrace is the PR's acceptance gate: a tiny MM run under
// CAPS must export a Chrome trace that is valid JSON, cycle-ordered per
// track, carries every SM as its own track, includes scheduler transition
// events, and contains at least one complete prefetch lifecycle
// (candidate → L1 fill → consumed).
func TestGoldenChromeTrace(t *testing.T) {
	cfg := obsConfig()
	snk := NewSink(cfg, true, 0)
	runWithSink(t, cfg, snk)

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, snk); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("exported trace is not valid JSON")
	}
	sum, err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events == 0 {
		t.Fatal("trace contains no events")
	}
	if sum.SMTracks != cfg.NumSMs {
		t.Errorf("trace has %d SM tracks, want one per SM (%d)", sum.SMTracks, cfg.NumSMs)
	}
	if sum.SchedEvents == 0 {
		t.Error("trace has no scheduler transition events")
	}
	if sum.PrefLifecycle == 0 {
		t.Error("trace has no complete prefetch lifecycle (candidate → fill → consume)")
	}
	// Stall runs are coalesced into begin/end pairs; the validator already
	// rejected any end without a matching begin, so here it is enough to
	// require that runs exist and that begins bound ends from above.
	if sum.StallBegins == 0 {
		t.Error("trace has no warp stall runs (begin/end coalescing broken)")
	}
	if sum.StallEnds > sum.StallBegins {
		t.Errorf("stall ends (%d) exceed begins (%d)", sum.StallEnds, sum.StallBegins)
	}
}

// TestObsReconcilesWithStats cross-checks the obs counters against the
// stats.Sim totals the figures are built from: both observe the same
// events at the same sites, so any divergence means a hook is missing or
// double-counting.
func TestObsReconcilesWithStats(t *testing.T) {
	cfg := obsConfig()
	snk := NewSink(cfg, false, 0)
	_, st := runWithSink(t, cfg, snk)

	snap := snk.Snapshot()
	checks := []struct {
		metric string
		want   int64
	}{
		{"pref_admit_total", st.PrefIssued},
		{"pref_consume_total", st.PrefUseful},
		{"pref_late_total", st.PrefLate},
		{"pref_early_evict_total", st.PrefEarlyEvict},
		{"pref_drop_total", st.PrefDropped},
		{"cta_finish_total", st.CTAsDone},
		{"warp_finish_total", st.WarpsDone},
	}
	for _, c := range checks {
		if got := obs.SumCounters(snap, c.metric); got != c.want {
			t.Errorf("%s = %d, stats say %d", c.metric, got, c.want)
		}
	}
	// Every SM classifies every cycle exactly once, so the cycle-class
	// counters across all SMs sum to NumSMs × Cycles.
	if got, want := obs.SumCounters(snap, "sm_cycle_class_total"), int64(cfg.NumSMs)*st.Cycles; got != want {
		t.Errorf("sm_cycle_class_total = %d, want NumSMs*Cycles = %d", got, want)
	}
	// Stall runs pair up; at most the final in-flight run per warp may be
	// missing its end when the run hits an instruction cap.
	begins := obs.SumCounters(snap, "warp_stall_begin_total")
	ends := obs.SumCounters(snap, "warp_stall_end_total")
	if begins == 0 || ends > begins {
		t.Errorf("stall begin/end = %d/%d, want begins > 0 and ends <= begins", begins, ends)
	}
	if st.PrefIssued == 0 {
		t.Error("run admitted no prefetches; reconciliation is vacuous")
	}
}

// TestTracingPreservesDeterminism runs the same configuration with the sink
// disabled, with metrics only, and with full tracing, and requires the
// simulation outcome to be identical: observability must never perturb
// simulated state.
func TestTracingPreservesDeterminism(t *testing.T) {
	cfg := obsConfig()
	hash := func(snk *obs.Sink) (uint64, int64) {
		g, st := runWithSink(t, cfg, snk)
		return st.Hash64(), g.Cycle()
	}
	h0, c0 := hash(nil)
	h1, c1 := hash(NewSink(cfg, false, 0))
	h2, c2 := hash(NewSink(cfg, true, 0))
	if h1 != h0 || c1 != c0 {
		t.Errorf("metrics-only run diverged: hash %#x/%#x cycle %d/%d", h1, h0, c1, c0)
	}
	if h2 != h0 || c2 != c0 {
		t.Errorf("traced run diverged: hash %#x/%#x cycle %d/%d", h2, h0, c2, c0)
	}
}

// BenchmarkObsDisabledOverhead measures the simulator with a nil sink —
// the configuration every figure sweep runs in. Compare against
// BenchmarkObsMetricsOverhead / -trace variants with benchstat; the nil
// path is the one under the PR's <=2% budget.
func BenchmarkObsDisabledOverhead(b *testing.B) {
	benchObs(b, func(config.GPUConfig) *obs.Sink { return nil })
}
func BenchmarkObsMetricsOverhead(b *testing.B) {
	benchObs(b, func(c config.GPUConfig) *obs.Sink { return NewSink(c, false, 0) })
}
func BenchmarkObsTracingOverhead(b *testing.B) {
	benchObs(b, func(c config.GPUConfig) *obs.Sink { return NewSink(c, true, 0) })
}

func benchObs(b *testing.B, mk func(config.GPUConfig) *obs.Sink) {
	cfg := obsConfig()
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := New(cfg, k, WithPrefetcher("caps"), WithObs(mk(cfg)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLens is the shared body of the per-lens overhead pairs
// (BenchmarkMemLensOverhead, BenchmarkSchedLensOverhead,
// BenchmarkProfileOverhead and their No* baselines): MM-CAPS with
// idle-skip on a metrics-only sink, with attach adding the lens under
// test. Both sides of a pair pay for the sink, so the pair isolates the
// lens; BenchmarkObsMetricsOverhead against BenchmarkObsDisabledOverhead
// prices the sink itself. attach may return options or attach a consumer
// to snk directly; nil attaches nothing.
func benchLens(b *testing.B, attach func(cfg config.GPUConfig, snk *obs.Sink) []Option) {
	cfg := obsConfig()
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snk := NewSink(cfg, false, 0)
		opts := []Option{WithPrefetcher("caps"), WithIdleSkip(), WithObs(snk)}
		if attach != nil {
			opts = append(opts, attach(cfg, snk)...)
		}
		g, err := New(cfg, k, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileOverhead / BenchmarkNoProfileOverhead price capsprof's
// stall-stack collector, whose per-SM cycle-class fold is the sink's
// highest-rate stream (see benchLens).
func BenchmarkProfileOverhead(b *testing.B) {
	benchLens(b, func(cfg config.GPUConfig, snk *obs.Sink) []Option {
		snk.Attach(profile.NewCollector(cfg.NumSMs))
		return nil
	})
}
func BenchmarkNoProfileOverhead(b *testing.B) { benchLens(b, nil) }
