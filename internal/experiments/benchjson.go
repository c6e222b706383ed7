package experiments

import (
	"caps/internal/config"
	"caps/internal/profile"
)

// BuildBenchReport runs the CAPS configuration over the suite's benchmark
// set and folds the headline metrics into a machine-readable BenchReport
// (the BENCH_caps.json perf trajectory; capsprof bench-diff gates against
// it). Runs are parallelized and memoized through the suite, so a
// caller that already warmed the cache pays nothing extra.
func (s *Suite) BuildBenchReport() (*profile.BenchReport, error) {
	benches := s.benchNames()
	keys := make([]RunKey, len(benches))
	for i, b := range benches {
		keys[i] = PrefetcherKey(b, "caps")
	}
	if err := s.Warm(keys); err != nil {
		return nil, err
	}
	rep := &profile.BenchReport{
		Prefetcher: "caps",
		Scheduler:  string(SchedulerFor("caps")),
		MaxInsts:   s.cfg.MaxInsts,
		Benchmarks: make(map[string]profile.BenchMetrics, len(keys)),
	}
	for i, k := range keys {
		st, err := s.Run(k)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks[benches[i]] = profile.BenchMetrics{
			IPC:             st.IPC(),
			Coverage:        st.Coverage(),
			Accuracy:        st.Accuracy(),
			EarlyEvictRatio: st.EarlyPrefetchRatio(),
			MeanDistance:    st.MeanPrefetchDistance(),
			TotalCycles:     st.Cycles,
			Instructions:    st.Instructions,
		}
	}
	return rep, nil
}

// DefaultBenchConfig is the configuration bench-json reports are generated
// with: the paper's machine, capped for a tractable full-suite sweep.
func DefaultBenchConfig(maxInsts int64) config.GPUConfig {
	cfg := config.Default()
	if maxInsts > 0 {
		cfg.MaxInsts = maxInsts
	}
	return cfg
}
