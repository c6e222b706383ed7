package determinism

import (
	"testing"

	"caps/internal/config"
	"caps/internal/hostprof"
	"caps/internal/sim"
)

// The host profiler is pure observation: attaching it must leave the whole
// architectural story — final state hash, cycle and instruction counts —
// bit-identical. The profile it builds must also satisfy its own
// accounting invariants.
func TestHostProfPreservesHashAndValidates(t *testing.T) {
	cfg := config.Default()
	cfg.NumSMs = 4
	cfg.MaxInsts = 30_000
	base := []sim.Option{sim.WithPrefetcher("caps"), sim.WithScheduler(SchedulerFor("caps"))}
	plain, err := RunOnce(cfg, "STE", base...)
	if err != nil {
		t.Fatal(err)
	}
	hp := hostprof.New(hostprof.DefaultSampleEvery)
	profiled, err := RunOnce(cfg, "STE", append(base, sim.WithHostProf(hp))...)
	if err != nil {
		t.Fatalf("profiled: %v", err)
	}
	if plain != profiled {
		t.Errorf("host profiler changed the state hash: %#x vs %#x", profiled, plain)
	}
	pr := hp.Build("STE", "caps")
	// Generous coverage tolerance: a short CI run samples few steps, so
	// the extrapolation is noisy; the structural invariants (positive
	// wall, exact phase sum, no negative phase) are the hard part.
	if err := pr.Validate(1.0); err != nil {
		t.Errorf("built profile fails validation: %v", err)
	}
	if pr.Steps == 0 || pr.SampledSteps == 0 {
		t.Errorf("profile recorded steps=%d sampled=%d, want both > 0", pr.Steps, pr.SampledSteps)
	}
}
