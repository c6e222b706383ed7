package experiments

import (
	"testing"

	"caps/internal/config"
	"caps/internal/hostprof"
	"caps/internal/kernels"
	"caps/internal/lenses"
)

// The acceptance bar for the host profiler: a profile built from every one
// of the sixteen benchmarks must pass its own accounting invariants — the
// same check `capsprof host -validate` applies. The structural invariants
// (positive wall-clock, exact phase sum, sampled steps present) must hold
// unconditionally; the coverage band is statistical, and a short run on a
// loaded CI box can lose a couple of its few dozen sampled steps to the
// scheduler, so a coverage failure earns one retry on a fresh suite before
// it counts.
func TestHostProfValidatesOnAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("16 profiled runs; skipped in -short")
	}
	profileOne := func(abbr string) (*hostprof.Profile, error) {
		cfg := config.Default()
		cfg.MaxInsts = 60_000
		cfg.MaxCycle = 3_000_000
		var got *hostprof.Profile
		s := NewSuite(cfg, WithLens(lenses.Host, func(k RunKey, p lenses.Profile) { got = p.(*hostprof.Profile) }))
		key := PrefetcherKey(abbr, "caps")
		if _, err := s.Run(key); err != nil {
			t.Fatalf("%s: %v", abbr, err)
		}
		if got == nil {
			t.Fatalf("%s: WithLens hook did not fire", abbr)
		}
		if s.Profile(key, lenses.Host.Name) != got {
			t.Errorf("%s: Profile returned a different profile than the hook", abbr)
		}
		return got, got.Validate(1.0)
	}
	for _, k := range kernels.All() {
		hp, err := profileOne(k.Abbr)
		if err != nil {
			t.Logf("%s: first attempt: %v (retrying once)", k.Abbr, err)
			if hp, err = profileOne(k.Abbr); err != nil {
				t.Errorf("%s: profile fails validation twice: %v", k.Abbr, err)
				continue
			}
		}
		if hp.Bench != k.Abbr || hp.Prefetcher != "caps" {
			t.Errorf("%s: profile labeled %q/%q", k.Abbr, hp.Bench, hp.Prefetcher)
		}
	}
}
