package determinism

import (
	"testing"

	"caps/internal/hostprof"
	"caps/internal/sim"
)

// The host profiler is pure observation: attaching it must leave the whole
// architectural story — final state hash, cycle and instruction counts —
// bit-identical, serially and on parallel ticking. The profile it builds
// must also satisfy its own accounting invariants.
func TestHostProfPreservesHashAndValidates(t *testing.T) {
	cfg := parallelConfig()
	ensureParallelism(t, 2)
	for _, tc := range []struct {
		label string
		opts  []sim.Option
	}{
		{"serial", nil},
		{"workers=2", []sim.Option{sim.WithWorkers(2)}},
	} {
		base := append([]sim.Option{sim.WithPrefetcher("caps"), sim.WithScheduler(SchedulerFor("caps"))}, tc.opts...)
		plain, err := RunOnce(cfg, "STE", base...)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		hp := hostprof.New(hostprof.DefaultSampleEvery)
		profiled, err := RunOnce(cfg, "STE", append(base[:len(base):len(base)], sim.WithHostProf(hp))...)
		if err != nil {
			t.Fatalf("%s profiled: %v", tc.label, err)
		}
		if plain != profiled {
			t.Errorf("%s: host profiler changed the state hash: %#x vs %#x", tc.label, profiled, plain)
		}
		pr := hp.Build("STE", "caps")
		// Generous coverage tolerance: a short CI run samples few steps, so
		// the extrapolation is noisy; the structural invariants (positive
		// wall, exact phase sum, no negative phase) are the hard part.
		if err := pr.Validate(1.0); err != nil {
			t.Errorf("%s: built profile fails validation: %v", tc.label, err)
		}
		if pr.Steps == 0 || pr.SampledSteps == 0 {
			t.Errorf("%s: profile recorded steps=%d sampled=%d, want both > 0", tc.label, pr.Steps, pr.SampledSteps)
		}
	}
}
