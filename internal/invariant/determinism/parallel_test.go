package determinism

import (
	"runtime"
	"testing"

	"caps/internal/config"
	"caps/internal/sim"
	"caps/internal/stats"
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

// Idle-cycle fast-forward must leave the architectural story untouched: a
// full Run with skipping enabled has to land on the same cycle count,
// instruction count, IPC and state hash as one that grinds through every
// idle cycle — the skip only compresses wall-clock, never simulated time.
func TestIdleSkipPreservesStatsAndHash(t *testing.T) {
	cfg := parallelConfig()
	ensureParallelism(t, 2) // the idle-skip+workers case must really tick in parallel
	run := func(t *testing.T, bench string, opts ...sim.Option) (uint64, *stats.Sim) {
		t.Helper()
		g, err := sim.New(cfg, mustKernel(t, bench), opts...)
		if err != nil {
			t.Fatal(err)
		}
		st, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return StateHash(g, st), st
	}
	for _, tc := range []struct {
		bench string
		opts  []sim.Option
		label string
	}{
		{"STE", []sim.Option{sim.WithPrefetcher("caps"), sim.WithIdleSkip()}, "idle-skip"},
		{"MM", []sim.Option{sim.WithPrefetcher("none"), sim.WithIdleSkip()}, "idle-skip"},
		{"STE", []sim.Option{sim.WithPrefetcher("caps"), sim.WithIdleSkip(), sim.WithWorkers(2)}, "idle-skip+workers=2"},
	} {
		plainOpts := []sim.Option{tc.opts[0]}
		ph, pst := run(t, tc.bench, plainOpts...)
		sh, sst := run(t, tc.bench, tc.opts...)
		if pst.Cycles != sst.Cycles {
			t.Errorf("%s %s: cycles %d, serial %d", tc.bench, tc.label, sst.Cycles, pst.Cycles)
		}
		if pst.Instructions != sst.Instructions {
			t.Errorf("%s %s: instructions %d, serial %d", tc.bench, tc.label, sst.Instructions, pst.Instructions)
		}
		if pst.IPC() != sst.IPC() {
			t.Errorf("%s %s: IPC %v, serial %v", tc.bench, tc.label, sst.IPC(), pst.IPC())
		}
		if ph != sh {
			t.Errorf("%s %s: state hash %#x, serial %#x", tc.bench, tc.label, sh, ph)
		}
	}
}

// The memory-bound kernels spend their runs where the wake cycles act —
// partitions and DRAM channels skipped between events, stalled retry
// queues asleep, SMs in stall replay — so the idle-skip series must match
// the plain serial one there too, with the sanitizer auditing every
// skipped partition tick and the DRAM completion order. The run uses the
// full Table III SM count: four SMs never back the twelve L2 slices' MSHR
// files up, so their retry queues would never stall and sleep.
func TestIdleSkipSeriesMemoryBound(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 30_000
	cfg.CheckInvariants = true
	base := []sim.Option{sim.WithPrefetcher("caps"), sim.WithScheduler(SchedulerFor("caps"))}
	for _, bench := range []string{"BFS", "LPS", "JC1"} {
		plain, err := CheckpointRun(cfg, bench, 2048, base...)
		if err != nil {
			t.Fatalf("%s plain: %v", bench, err)
		}
		skipping, err := CheckpointRun(cfg, bench, 2048, append(base[:len(base):len(base)], sim.WithIdleSkip())...)
		if err != nil {
			t.Fatalf("%s idle-skip: %v", bench, err)
		}
		if len(skipping) != len(plain) {
			t.Errorf("%s: %d checkpoints with idle-skip, %d without", bench, len(skipping), len(plain))
			continue
		}
		for i := range plain {
			if skipping[i] != plain[i] {
				t.Errorf("%s: checkpoint at cycle %d hashed %#x with idle-skip, %#x without",
					bench, plain[i].Cycle, skipping[i].Hash, plain[i].Hash)
				break
			}
		}
	}
}
