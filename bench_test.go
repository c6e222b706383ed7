package caps_test

// One benchmark per paper table/figure: each regenerates the corresponding
// result through the same experiment drivers used by cmd/capsweep, at
// reduced scale (shorter instruction cap, subset of workloads for the
// multi-benchmark sweeps) so `go test -bench=.` completes in minutes on a
// single core. Run `capsweep -all` for the full-fidelity versions.

import (
	"testing"

	"caps/internal/config"
	"caps/internal/experiments"
	"caps/internal/kernels"
	"caps/internal/sim"
)

// benchConfig is the reduced-scale machine used by the benchmarks.
func benchConfig() config.GPUConfig {
	cfg := config.Default()
	cfg.MaxInsts = 15_000
	cfg.MaxCycle = 2_000_000
	return cfg
}

// benchSuite restricts the sweep to one benchmark from each behaviour
// class: bursty-regular (CNV), loop-tiled (MM), and irregular (BFS).
func benchSuite(benches ...string) *experiments.Suite {
	if len(benches) == 0 {
		benches = []string{"CNV", "MM", "BFS"}
	}
	return experiments.NewSuite(benchConfig(), experiments.WithBenches(benches))
}

func BenchmarkFigure1(b *testing.B) {
	cfg := benchConfig()
	cfg.MaxInsts = 60_000 // needs enough warps per SM to measure distances
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(cfg, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure4(); len(tab.Rows) != 16 {
			b.Fatal("figure 4 incomplete")
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := experiments.Figure10(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite("CNV") // 4 CTA configs × 8 schemes
		if _, err := experiments.Figure11(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, _, err := experiments.Figure12(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, _, err := experiments.Figure13(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure14a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := experiments.Figure14a(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure14b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := experiments.Figure14b(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := experiments.Figure15(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if experiments.TableI(cfg) == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if experiments.TableII(cfg) == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if experiments.TableIII(cfg) == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.TableIV(); len(tab.Rows) != 16 {
			b.Fatal("table IV incomplete")
		}
	}
}

// BenchmarkFlightRecorder measures the marginal cost of an always-on
// flight recorder against BenchmarkNoFlightRecorder: the same run, same
// metrics sink, with and without the black box attached. The recorder
// budget is <2% — its hot path is one ring store per event, no
// allocation, and it opts out of the per-SM-per-cycle EvCycleClass
// stream (obs.StreamFilter).
func BenchmarkFlightRecorder(b *testing.B)   { benchFlightRun(b, true) }
func BenchmarkNoFlightRecorder(b *testing.B) { benchFlightRun(b, false) }

func benchFlightRun(b *testing.B, record bool) {
	cfg := benchConfig()
	k, err := kernels.ByAbbr("CNV")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := []sim.Option{sim.WithPrefetcher("caps"), sim.WithObs(sim.NewSink(cfg, false, 0))}
		if record {
			opts = append(opts, sim.WithFlight(sim.NewFlightRecorder(cfg)))
		}
		g, err := sim.New(cfg, k, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per wall second) — the number to watch when optimizing the
// simulator itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	s := experiments.NewSuite(benchConfig())
	for i := 0; i < b.N; i++ {
		k := experiments.BaselineKey("CNV")
		k.MaxCTAs = 8 // distinct key per iteration set is unnecessary; memoization off via fresh suite
		if _, err := s.Run(k); err != nil {
			b.Fatal(err)
		}
		s = experiments.NewSuite(benchConfig())
	}
}
