// Package determinism is the replay harness behind the repo's bit-for-bit
// reproducibility guarantee: every figure in EXPERIMENTS.md compares IPC
// across configurations, which is only meaningful if the same configuration
// always produces the same run. The harness executes a benchmark twice with
// the invariant sanitizer enabled and compares an FNV-1a hash of the final
// statistics and memory-system state; any divergence means a nondeterminism
// source (map-iteration order, wall-clock time, global randomness) leaked
// into simulator state — exactly the class of bug cmd/simcheck's detlint
// pass hunts statically.
package determinism

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/sim"
	"caps/internal/stats"
)

// StateHash folds the run's statistics, the architectural state of every
// SM (warp contexts, queues, scheduler queues, CAP PerCTA/DIST tables),
// every L1 and L2 slice, and the current cycle into one FNV-1a hash. It is
// valid mid-run, not just at completion — the checkpoint harness
// (CheckSeries, Bisect) calls it every K cycles.
func StateHash(g *sim.GPU, st *stats.Sim) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(st.Hash64())
	for _, sm := range g.SMs() {
		sm.L1().HashState(h)
		sm.HashState(h)
	}
	for _, p := range g.Partitions() {
		p.L2().HashState(h)
	}
	put(uint64(g.Cycle()))
	return h.Sum64()
}

// RunOnce simulates one benchmark to completion and returns its state hash.
func RunOnce(cfg config.GPUConfig, bench string, opts ...sim.Option) (uint64, error) {
	k, err := kernels.ByAbbr(bench)
	if err != nil {
		return 0, err
	}
	g, err := sim.New(cfg, k, opts...)
	if err != nil {
		return 0, fmt.Errorf("determinism: %s: %w", bench, err)
	}
	st, err := g.Run()
	if err != nil {
		return 0, fmt.Errorf("determinism: %s: %w", bench, err)
	}
	return StateHash(g, st), nil
}

// Check runs the benchmark twice with invariant checking enabled and
// reports the (identical) hash; a hash mismatch or a sanitizer violation in
// either run is returned as an error.
func Check(cfg config.GPUConfig, bench string, opts ...sim.Option) (uint64, error) {
	cfg.CheckInvariants = true
	h1, err := RunOnce(cfg, bench, opts...)
	if err != nil {
		return 0, err
	}
	h2, err := RunOnce(cfg, bench, opts...)
	if err != nil {
		return 0, err
	}
	if h1 != h2 {
		return 0, fmt.Errorf("determinism: %s: state hash diverged across identical runs: %#x vs %#x",
			bench, h1, h2)
	}
	return h1, nil
}

// SchedulerFor mirrors the evaluation pairing of the paper: CAPS runs on
// its Prefetch-Aware Scheduler, everything else on the two-level baseline.
func SchedulerFor(prefetcher string) config.SchedulerKind {
	if prefetcher == "caps" {
		return config.SchedPAS
	}
	return config.SchedTwoLevel
}
