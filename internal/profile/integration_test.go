package profile_test

import (
	"testing"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/obs"
	"caps/internal/profile"
	"caps/internal/sim"
)

// TestStallStackInvariantAllBenchmarks is the acceptance gate for cycle
// attribution: on every benchmark in the suite, under CAPS+PAS, each SM's
// stall-stack buckets must sum to exactly Stats.Cycles (Build errors
// otherwise). Small instruction caps keep the full sweep in test budget
// while still exercising launch, steady state, and drain on each kernel.
func TestStallStackInvariantAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-benchmark sweep skipped in -short mode")
	}
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Abbr, func(t *testing.T) {
			t.Parallel()
			cfg := config.Default()
			cfg.NumSMs = 2
			cfg.Scheduler = config.SchedPAS
			cfg.MaxInsts = 12_000
			cfg.MaxCycle = 2_000_000

			snk := sim.NewSink(cfg, false, 0)
			col := profile.NewCollector(cfg.NumSMs)
			snk.Attach(col)
			g, err := sim.New(cfg, k, sim.WithPrefetcher("caps"), sim.WithObs(snk))
			if err != nil {
				t.Fatal(err)
			}
			st, err := g.Run()
			if err != nil {
				t.Fatal(err)
			}
			meta := profile.Meta{Bench: k.Abbr, Prefetcher: "caps", Scheduler: string(cfg.Scheduler), SMs: cfg.NumSMs}
			p, err := col.Build(meta, st)
			if err != nil {
				t.Fatalf("stall-stack invariant violated: %v", err)
			}
			if p.TotalCycles == 0 {
				t.Fatal("run retired no cycles; invariant vacuous")
			}
			// The profile must agree with the sink's own counters.
			want := obs.SumCounters(snk.Snapshot(), "sm_cycle_class_total")
			var got int64
			for c := obs.CycleClass(0); c < obs.NumCycleClasses; c++ {
				got += p.StallStack[c.String()]
			}
			if got != want {
				t.Errorf("profile classified %d cycles, sink counters say %d", got, want)
			}
			// A run that issued instructions must attribute issue cycles.
			if st.Instructions > 0 && p.StallStack["issue"] == 0 {
				t.Error("instructions retired but no issue cycles attributed")
			}
		})
	}
}

// TestProfileDeterminism: attaching a collector must not perturb the
// simulation (the profiler is an observer, not a participant).
func TestProfileDeterminism(t *testing.T) {
	cfg := config.Default()
	cfg.NumSMs = 2
	cfg.Scheduler = config.SchedPAS
	cfg.MaxInsts = 12_000
	cfg.MaxCycle = 2_000_000
	k, err := kernels.ByAbbr("CNV")
	if err != nil {
		t.Fatal(err)
	}
	run := func(attach bool) uint64 {
		snk := sim.NewSink(cfg, false, 0)
		if attach {
			snk.Attach(profile.NewCollector(cfg.NumSMs))
		}
		g, err := sim.New(cfg, k, sim.WithPrefetcher("caps"), sim.WithObs(snk))
		if err != nil {
			t.Fatal(err)
		}
		st, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Hash64()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("profiling perturbed the run: %#x vs %#x", a, b)
	}
}
