package determinism

import (
	"math"
	"strings"
	"testing"

	"caps/internal/config"
	"caps/internal/core"
	"caps/internal/kernels"
	"caps/internal/sim"
)

func checkpointConfig() config.GPUConfig {
	cfg := config.Default()
	cfg.NumSMs = 4
	cfg.MaxInsts = 60_000
	return cfg
}

func TestCheckpointRunSamplesPeriodically(t *testing.T) {
	cfg := checkpointConfig()
	cps, err := CheckpointRun(cfg, "MM", 1024, sim.WithPrefetcher("caps"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 {
		t.Fatalf("got %d checkpoints, want at least a periodic sample plus the final one", len(cps))
	}
	for i := 0; i < len(cps)-1; i++ {
		if cps[i].Cycle&1023 != 0 {
			t.Errorf("checkpoint %d at cycle %d, not on the 1024-cycle grid", i, cps[i].Cycle)
		}
		if i > 0 && cps[i].Cycle <= cps[i-1].Cycle {
			t.Errorf("checkpoint cycles not increasing: %d then %d", cps[i-1].Cycle, cps[i].Cycle)
		}
	}
}

func TestCheckSeriesReproducible(t *testing.T) {
	cfg := checkpointConfig()
	for _, pf := range []string{"caps", "none"} {
		n, h, err := CheckSeries(cfg, "MM", 1024, sim.WithPrefetcher(pf), sim.WithScheduler(SchedulerFor(pf)))
		if err != nil {
			t.Errorf("%s: %v", pf, err)
			continue
		}
		if n < 2 || h == 0 {
			t.Errorf("%s: suspicious series: %d checkpoints, final hash %#x", pf, n, h)
		}
	}
}

// A run through GPU.Run, overlapped whenever the host has a spare
// processor, ends on the state its serial checkpoint series ends on.
func TestRunEndsOnSeriesHash(t *testing.T) {
	cfg := checkpointConfig()
	opts := []sim.Option{sim.WithPrefetcher("caps"), sim.WithScheduler(SchedulerFor("caps"))}
	cps, err := CheckpointRun(cfg, "BFS", 1024, opts...)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := RunToSeriesEnd(cfg, "BFS", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if want := cps[len(cps)-1].Hash; h != want {
		t.Errorf("Run ended on state hash %#x, its checkpoint series on %#x", h, want)
	}
}

// The bisector must pin a seeded one-cycle prefetch perturbation to the
// exact cycle it fired — the acceptance criterion for the localizer. The
// firing cycle comes from a probe run with the same seed: the simulator is
// deterministic, so side B's perturbation lands on the same cycle.
func TestBisectPinsSeededPerturbation(t *testing.T) {
	cfg := checkpointConfig()
	const perturbAt = 500

	probe, err := sim.New(cfg, mustKernel(t, "MM"), sim.WithPrefetcher("caps"), sim.WithPerturbPrefetchAt(perturbAt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Run(); err != nil {
		t.Fatal(err)
	}
	fired := probe.PerturbedAt()
	if fired < perturbAt {
		t.Fatalf("probe perturbation never fired (PerturbedAt=%d)", fired)
	}

	a := Side{Label: "baseline", Cfg: cfg, Opts: []sim.Option{sim.WithPrefetcher("caps")}}
	b := Side{Label: "perturbed", Cfg: cfg, Opts: []sim.Option{sim.WithPrefetcher("caps"), sim.WithPerturbPrefetchAt(perturbAt)}}
	d, err := Bisect("MM", a, b, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("Bisect reported no divergence for a perturbed run")
	}
	if d.Cycle != fired {
		t.Errorf("Bisect localized cycle %d, want the perturbation cycle %d", d.Cycle, fired)
	}
	if d.HashA == d.HashB {
		t.Error("divergence hashes are equal")
	}
	if d.WindowA == nil || d.WindowB == nil {
		t.Fatal("Bisect did not attach flight windows")
	}
	for _, w := range []*struct {
		label string
		msg   string
	}{{a.Label, d.WindowA.Header.Message}, {b.Label, d.WindowB.Header.Message}} {
		if !strings.Contains(w.msg, "first divergent cycle") {
			t.Errorf("%s window message %q does not name the divergent cycle", w.label, w.msg)
		}
	}
}

// Identical sides must produce no divergence (and no error).
func TestBisectIdenticalSides(t *testing.T) {
	cfg := checkpointConfig()
	s := Side{Label: "x", Cfg: cfg, Opts: []sim.Option{sim.WithPrefetcher("caps")}}
	d, err := Bisect("MM", s, s, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatalf("identical sides reported divergent at cycle %d", d.Cycle)
	}
}

// StateHash must cover the CAP tables: two machines identical except for
// one DIST-table stride must hash differently. This is what lets the
// checkpoint series catch divergences that live only in predictor state.
func TestStateHashCoversCAPTables(t *testing.T) {
	cfg := checkpointConfig()
	mk := func() *sim.GPU {
		g, err := sim.New(cfg, mustKernel(t, "MM"), sim.WithPrefetcher("caps"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := g.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	ga, gb := mk(), mk()
	if StateHash(ga, ga.Stats()) != StateHash(gb, gb.Stats()) {
		t.Fatal("identical short runs hash differently — test premise broken")
	}
	caps, ok := gb.SMs()[0].Prefetcher().(*core.CAPS)
	if !ok {
		t.Fatalf("SM 0 prefetcher is %T, want *core.CAPS", gb.SMs()[0].Prefetcher())
	}
	caps.ForceDistStride(0x9999, 7)
	if StateHash(ga, ga.Stats()) == StateHash(gb, gb.Stats()) {
		t.Error("StateHash unchanged after a DIST-table-only mutation: CAP tables not covered")
	}
}

// Attaching a flight recorder must not perturb the simulation: the final
// state hash with and without one must match (the recorder is a passive
// consumer, not a participant).
func TestFlightRecorderDoesNotPerturbHash(t *testing.T) {
	cfg := checkpointConfig()
	run := func(opts ...sim.Option) uint64 {
		g, err := sim.New(cfg, mustKernel(t, "MM"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return StateHash(g, g.Stats())
	}
	plain := run(sim.WithPrefetcher("caps"))
	recorded := run(sim.WithPrefetcher("caps"), sim.WithFlight(sim.NewFlightRecorder(cfg)))
	if plain != recorded {
		t.Errorf("flight recorder changed the state hash: %#x vs %#x", plain, recorded)
	}
}

func mustKernel(t *testing.T, abbr string) *kernels.Kernel {
	t.Helper()
	k, err := kernels.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// A checkpoint interval above sim.MaxProgressEvery has no int64 power of
// two to round up to; both entry points must reject it rather than loop.
func TestCheckpointIntervalBound(t *testing.T) {
	cfg := checkpointConfig()
	cfg.MaxInsts = 2_000
	side := Side{Label: "a", Cfg: cfg, Opts: []sim.Option{sim.WithPrefetcher("none")}}
	for _, tc := range []struct {
		every int64
		ok    bool
	}{
		{sim.MaxProgressEvery, true},
		{sim.MaxProgressEvery + 1, false},
		{math.MaxInt64, false},
	} {
		cps, err := CheckpointRun(cfg, "MM", tc.every)
		if tc.ok != (err == nil) {
			t.Errorf("CheckpointRun(every=%d): err = %v, want ok=%v", tc.every, err, tc.ok)
		} else if tc.ok && len(cps) != 1 {
			t.Errorf("CheckpointRun(every=%d): %d checkpoints, want only the final one", tc.every, len(cps))
		}
		if _, err := Bisect("MM", side, side, tc.every); tc.ok != (err == nil) {
			t.Errorf("Bisect(every=%d): err = %v, want ok=%v", tc.every, err, tc.ok)
		}
	}
}
