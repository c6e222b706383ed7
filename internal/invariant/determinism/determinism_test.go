package determinism

import (
	"testing"

	"caps/internal/config"
	"caps/internal/sim"
)

// harnessCfg is a scaled-down machine so the double runs stay fast; the
// determinism property is configuration-independent.
func harnessCfg() config.GPUConfig {
	cfg := config.Default()
	cfg.NumSMs = 4
	cfg.MaxInsts = 60_000
	return cfg
}

func TestRunsAreReproducible(t *testing.T) {
	for _, tc := range []struct{ bench, pf string }{
		{"STE", "caps"},
		{"BFS", "caps"},
		{"MM", "none"},
	} {
		h, err := Check(harnessCfg(), tc.bench, sim.WithPrefetcher(tc.pf), sim.WithScheduler(SchedulerFor(tc.pf)))
		if err != nil {
			t.Errorf("%s/%s: %v", tc.bench, tc.pf, err)
			continue
		}
		if h == 0 {
			t.Errorf("%s/%s: state hash is zero, harness is likely hashing nothing", tc.bench, tc.pf)
		}
	}
}

func TestStateHashDistinguishesRuns(t *testing.T) {
	cfg := harnessCfg()
	base, err := RunOnce(cfg, "STE", sim.WithPrefetcher("none"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxInsts /= 2
	short, err := RunOnce(cfg, "STE", sim.WithPrefetcher("none"))
	if err != nil {
		t.Fatal(err)
	}
	if base == short {
		t.Error("different run lengths hashed identically; StateHash is too weak")
	}
}

// The memory-bound kernels spend their runs where the wake cycles and the
// fast-forward act — partitions and DRAM channels skipped between events,
// stalled retry queues asleep, SMs in stall replay and settled in bulk —
// so their checkpoint series must reproduce across two runs with the
// sanitizer auditing every skipped partition tick, every settled SM
// window and the DRAM completion order. The runs use the full Table III
// SM count: four SMs never back the twelve L2 slices' MSHR files up, so
// their retry queues would never stall and sleep. The fast-forward's
// equality with the plain per-cycle pipeline is sim's
// TestWindowSkipMatchesPerCycle.
func TestFastForwardSeriesMemoryBound(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 30_000
	base := []sim.Option{sim.WithPrefetcher("caps"), sim.WithScheduler(SchedulerFor("caps"))}
	for _, bench := range []string{"BFS", "LPS", "JC1"} {
		if _, _, err := CheckSeries(cfg, bench, 2048, base...); err != nil {
			t.Error(err)
		}
	}
}
