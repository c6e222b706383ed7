package determinism

import (
	"runtime"
	"testing"

	"caps/internal/config"
	"caps/internal/sim"
)

func parallelConfig() config.GPUConfig {
	cfg := config.Default()
	cfg.NumSMs = 4
	cfg.MaxInsts = 30_000
	return cfg
}

// ensureParallelism raises GOMAXPROCS to n for the test's duration:
// sim.New clamps the worker pool to GOMAXPROCS (extra workers cannot run
// concurrently), which on a 1-CPU machine would silently turn every
// multi-worker run below into the serial path it is meant to be compared
// against.
func ensureParallelism(t *testing.T, n int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) >= n {
		return
	}
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// workerCounts is the sweep the acceptance criterion names: serial, two
// workers, and one per CPU — deduplicated so a 1-CPU machine doesn't run
// the same configuration three times.
func workerCounts() []int {
	counts := []int{1, 2, runtime.NumCPU()}
	var out []int
	for _, c := range counts {
		dup := false
		for _, o := range out {
			if o == c {
				dup = true
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// The parallel tick must be a pure implementation detail: the whole
// periodic checkpoint-hash series at every worker count must be
// bit-identical to the serial machine's, not just the final hash — a
// transient reordering that cancels out by the end still fails here.
func TestParallelTickMatchesSerialSeries(t *testing.T) {
	cfg := parallelConfig()
	counts := workerCounts()
	ensureParallelism(t, counts[len(counts)-1])
	for _, bench := range []string{"STE", "MM"} {
		base := []sim.Option{sim.WithPrefetcher("caps"), sim.WithScheduler(SchedulerFor("caps"))}
		serial, err := CheckpointRun(cfg, bench, 1024, base...)
		if err != nil {
			t.Fatalf("%s serial: %v", bench, err)
		}
		for _, w := range workerCounts() {
			if w == 1 {
				continue // the serial baseline itself
			}
			par, err := CheckpointRun(cfg, bench, 1024, append(base[:len(base):len(base)], sim.WithWorkers(w))...)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", bench, w, err)
			}
			if len(par) != len(serial) {
				t.Errorf("%s workers=%d: %d checkpoints, serial produced %d", bench, w, len(par), len(serial))
				continue
			}
			for i := range serial {
				if par[i] != serial[i] {
					t.Errorf("%s workers=%d: checkpoint at cycle %d hashed %#x, serial %#x",
						bench, w, serial[i].Cycle, par[i].Hash, serial[i].Hash)
					break
				}
			}
		}
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
