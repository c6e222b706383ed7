package determinism

import (
	"fmt"

	"caps/internal/config"
	"caps/internal/flight"
	"caps/internal/kernels"
	"caps/internal/sim"
)

// Checkpoint is one periodic state-hash sample: the machine's full
// StateHash at a cycle boundary. A series of checkpoints turns the
// end-of-run yes/no reproducibility answer into a timeline — the first
// mismatching checkpoint brackets a divergence to one K-cycle window.
type Checkpoint struct {
	Cycle int64
	Hash  uint64
}

// Side is one half of a divergence localization: a configuration and
// options pair, with a label for dump filenames and reports.
type Side struct {
	Label string
	Cfg   config.GPUConfig
	Opts  []sim.Option
}

// Divergence is a localized first point of disagreement between two runs.
type Divergence struct {
	Bench string
	Every int64 // checkpoint interval used (power of two)

	// CheckpointCycle is the first checkpoint whose hashes differ;
	// Cycle is the exact cycle whose Step first made the states differ.
	CheckpointCycle int64
	Cycle           int64
	HashA, HashB    uint64

	// WindowA/WindowB are each run's flight-recorder windows around the
	// divergent cycle (ReasonDivergence dumps).
	WindowA, WindowB *flight.Dump
}

// runner wraps a GPU with the Run-loop termination conditions so the
// harness can step one cycle at a time (GPU.Run owns the loop otherwise).
type runner struct {
	g   *sim.GPU
	cfg config.GPUConfig
}

func newRunner(cfg config.GPUConfig, bench string, opts ...sim.Option) (*runner, error) {
	k, err := kernels.ByAbbr(bench)
	if err != nil {
		return nil, err
	}
	g, err := sim.New(cfg, k, opts...)
	if err != nil {
		return nil, fmt.Errorf("determinism: %s: %w", bench, err)
	}
	return &runner{g: g, cfg: cfg}, nil
}

func (r *runner) done() bool {
	if r.cfg.MaxInsts > 0 && r.g.Instructions() >= r.cfg.MaxInsts {
		return true
	}
	if r.cfg.MaxCycle > 0 && r.g.Cycle() >= r.cfg.MaxCycle {
		return true
	}
	return r.g.Done()
}

func (r *runner) hash() uint64 { return StateHash(r.g, r.g.Stats()) }

// CheckpointRun simulates one benchmark to completion, sampling StateHash
// every `every` cycles, rounded up to a power of two the way
// sim.WithProgressEvery rounds the progress beat: the checkpoint clock and
// the beat share a base so one mask test serves both. An interval above
// sim.MaxProgressEvery is rejected. The returned series ends with one
// final sample at the finishing cycle.
func CheckpointRun(cfg config.GPUConfig, bench string, every int64, opts ...sim.Option) ([]Checkpoint, error) {
	every, err := sim.ProgressPeriod(every)
	if err != nil {
		return nil, fmt.Errorf("determinism: %s: %w", bench, err)
	}
	opts = append(opts[:len(opts):len(opts)], sim.WithProgressEvery(every))
	r, err := newRunner(cfg, bench, opts...)
	if err != nil {
		return nil, err
	}
	defer r.g.Close()
	var cps []Checkpoint
	for !r.done() {
		if err := r.g.Step(); err != nil {
			return cps, fmt.Errorf("determinism: %s: %w", bench, err)
		}
		if r.g.Cycle()&(every-1) == 0 {
			cps = append(cps, Checkpoint{Cycle: r.g.Cycle(), Hash: r.hash()})
		}
	}
	cps = append(cps, Checkpoint{Cycle: r.g.Cycle(), Hash: r.hash()})
	return cps, nil
}

// CheckSeries runs the benchmark twice with invariant checking enabled and
// compares the full checkpoint series, not just the final hash. It returns
// the number of checkpoints and the final hash; the error pinpoints the
// first mismatching checkpoint's cycle.
func CheckSeries(cfg config.GPUConfig, bench string, every int64, opts ...sim.Option) (int, uint64, error) {
	cfg.CheckInvariants = true
	a, err := CheckpointRun(cfg, bench, every, opts...)
	if err != nil {
		return 0, 0, err
	}
	b, err := CheckpointRun(cfg, bench, every, opts...)
	if err != nil {
		return 0, 0, err
	}
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("determinism: %s: checkpoint counts diverged across identical runs: %d vs %d",
			bench, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return 0, 0, fmt.Errorf("determinism: %s: checkpoint at cycle %d diverged across identical runs: %#x vs %#x",
				bench, a[i].Cycle, a[i].Hash, b[i].Hash)
		}
	}
	return len(a), a[len(a)-1].Hash, nil
}

// CheckIdleSkip holds the idle fast-forward to the plain executor: it runs
// the benchmark with invariant checking enabled, once plainly and once
// with sim.WithIdleSkip, and compares the two checkpoint series (every <= 0
// samples at sim.DefaultProgressEvery). Under the sanitizer the fast
// path's own audits run too: every skipped L2 partition tick and every
// settled SM window. It returns the number of checkpoints and the final
// hash; the error names the first cycle at which the series part.
func CheckIdleSkip(cfg config.GPUConfig, bench string, every int64, opts ...sim.Option) (int, uint64, error) {
	cfg.CheckInvariants = true
	plain, err := CheckpointRun(cfg, bench, every, opts...)
	if err != nil {
		return 0, 0, err
	}
	skip, err := CheckpointRun(cfg, bench, every, append(opts[:len(opts):len(opts)], sim.WithIdleSkip())...)
	if err != nil {
		return 0, 0, err
	}
	for i := range min(len(plain), len(skip)) {
		if plain[i] != skip[i] {
			return 0, 0, fmt.Errorf("determinism: %s: idle-skip checkpoint at cycle %d diverged from the plain run's (%d): %#x vs %#x",
				bench, skip[i].Cycle, plain[i].Cycle, skip[i].Hash, plain[i].Hash)
		}
	}
	if len(plain) != len(skip) {
		return 0, 0, fmt.Errorf("determinism: %s: idle-skip run took %d checkpoints, the plain run %d", bench, len(skip), len(plain))
	}
	return len(plain), plain[len(plain)-1].Hash, nil
}

// Bisect dual-runs two sides in lockstep and localizes their first state
// divergence to an exact cycle. Phase one steps both machines together,
// comparing StateHash every `every` cycles until a checkpoint disagrees
// (coarse bracket: one K-cycle window). Phase two rebuilds both sides with
// flight recorders, fast-forwards to the last agreeing checkpoint, then
// compares hashes after every single cycle; the first mismatch names the
// divergent cycle and both flight windows are dumped around it.
//
// The interval rounds and is bounded as in CheckpointRun. A nil Divergence
// with a nil error means the two sides never diverged.
func Bisect(bench string, a, b Side, every int64) (*Divergence, error) {
	every, err := sim.ProgressPeriod(every)
	if err != nil {
		return nil, fmt.Errorf("determinism: %s: %w", bench, err)
	}
	optsA := append(a.Opts[:len(a.Opts):len(a.Opts)], sim.WithProgressEvery(every))
	optsB := append(b.Opts[:len(b.Opts):len(b.Opts)], sim.WithProgressEvery(every))

	ra, err := newRunner(a.Cfg, bench, optsA...)
	if err != nil {
		return nil, err
	}
	defer func() { ra.g.Close() }()
	rb, err := newRunner(b.Cfg, bench, optsB...)
	if err != nil {
		return nil, err
	}
	defer func() { rb.g.Close() }()

	// Phase one: lockstep to the first divergent checkpoint.
	divCheckpoint := int64(-1)
	for {
		da, db := ra.done(), rb.done()
		if da != db {
			// One side finished early: they diverged inside this window.
			divCheckpoint = ra.g.Cycle()
			break
		}
		if da {
			break
		}
		if err := ra.g.Step(); err != nil {
			return nil, fmt.Errorf("determinism: %s (%s): %w", bench, a.Label, err)
		}
		if err := rb.g.Step(); err != nil {
			return nil, fmt.Errorf("determinism: %s (%s): %w", bench, b.Label, err)
		}
		if ra.g.Cycle()&(every-1) == 0 && ra.hash() != rb.hash() {
			divCheckpoint = ra.g.Cycle()
			break
		}
	}
	if divCheckpoint < 0 {
		if ha, hb := ra.hash(), rb.hash(); ha != hb {
			divCheckpoint = ra.g.Cycle()
		} else {
			return nil, nil // never diverged
		}
	}

	// Phase two: replay both sides with flight recorders to the start of
	// the divergent window, then localize to the exact cycle.
	start := divCheckpoint - every
	if start < 0 {
		start = 0
	}
	ra.g.Close()
	rb.g.Close()
	ra, err = newRunner(a.Cfg, bench, append(optsA, sim.WithFlight(sim.NewFlightRecorder(a.Cfg)))...)
	if err != nil {
		return nil, err
	}
	rb, err = newRunner(b.Cfg, bench, append(optsB, sim.WithFlight(sim.NewFlightRecorder(b.Cfg)))...)
	if err != nil {
		return nil, err
	}
	for ra.g.Cycle() < start && !ra.done() {
		if err := ra.g.Step(); err != nil {
			return nil, fmt.Errorf("determinism: %s (%s): %w", bench, a.Label, err)
		}
	}
	for rb.g.Cycle() < start && !rb.done() {
		if err := rb.g.Step(); err != nil {
			return nil, fmt.Errorf("determinism: %s (%s): %w", bench, b.Label, err)
		}
	}
	d := &Divergence{Bench: bench, Every: every, CheckpointCycle: divCheckpoint}
	for {
		if ra.done() || rb.done() {
			// Doneness asymmetry localizes to the last executed cycle.
			d.Cycle = ra.g.Cycle()
			break
		}
		if err := ra.g.Step(); err != nil {
			return nil, fmt.Errorf("determinism: %s (%s): %w", bench, a.Label, err)
		}
		if err := rb.g.Step(); err != nil {
			return nil, fmt.Errorf("determinism: %s (%s): %w", bench, b.Label, err)
		}
		if ha, hb := ra.hash(), rb.hash(); ha != hb {
			// Post-step Cycle() is one past the cycle that just executed.
			d.Cycle = ra.g.Cycle() - 1
			d.HashA, d.HashB = ha, hb
			break
		}
		if ra.g.Cycle() > divCheckpoint {
			return nil, fmt.Errorf("determinism: %s: checkpoint at cycle %d diverged but no single cycle in (%d,%d] did — non-state input to the hash?",
				bench, divCheckpoint, start, divCheckpoint)
		}
	}
	msg := fmt.Sprintf("first divergent cycle %d (checkpoint window (%d,%d], vs %q)", d.Cycle, start, divCheckpoint, b.Label)
	d.WindowA = ra.g.DumpNow(flight.ReasonDivergence, msg)
	msgB := fmt.Sprintf("first divergent cycle %d (checkpoint window (%d,%d], vs %q)", d.Cycle, start, divCheckpoint, a.Label)
	d.WindowB = rb.g.DumpNow(flight.ReasonDivergence, msgB)
	return d, nil
}
