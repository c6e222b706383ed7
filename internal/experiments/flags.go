package experiments

import (
	"flag"
	"runtime"

	"caps/internal/sim"
)

// SimFlags is the shared -workers flag, so capsim and capsweep expose the
// parallel-tick knob with one spelling and one default. It defaults to the
// serial configuration: the flag is an opt-in speed tool, never a silent
// behavior change.
type SimFlags struct {
	// Workers is the per-run SM tick worker count (sim.WithWorkers).
	// 1 means the classic serial tick; 0 lets the simulator pick
	// (GOMAXPROCS, capped at the SM count).
	Workers int
}

// AddSimFlags registers the shared simulator-speed flags on fs and returns
// the struct their values land in. Call before flag.Parse.
func AddSimFlags(fs *flag.FlagSet) *SimFlags {
	f := &SimFlags{}
	fs.IntVar(&f.Workers, "workers", 1, "SM tick worker goroutines per simulation (1 = serial, 0 = one per CPU)")
	return f
}

// SimOptions translates the parsed flags into per-run simulator options.
func (f *SimFlags) SimOptions() []sim.Option {
	var opts []sim.Option
	if f.Workers != 1 {
		opts = append(opts, sim.WithWorkers(f.Workers))
	}
	return opts
}

// Parallelism composes the suite-level run parallelism with the intra-run
// worker count so the two never oversubscribe the machine: running P
// simulations that each tick on W goroutines wants P*W <= GOMAXPROCS.
//
// requested > 0 is an explicit user choice (-par) and wins unchanged;
// otherwise, when Workers claims more than one CPU per run, the suite
// parallelism shrinks to GOMAXPROCS/Workers (floor 1). A zero return
// means "no opinion" — keep the suite's default.
func (f *SimFlags) Parallelism(requested int) int {
	if requested > 0 {
		return requested
	}
	w := f.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > 1 {
		p := runtime.GOMAXPROCS(0) / w
		if p < 1 {
			p = 1
		}
		return p
	}
	return 0
}

// SuiteOptions bundles the flags into suite options: every run gets the
// worker setting, and the suite parallelism is derated per
// Parallelism. requested is the explicit -par value (0 = unset).
func (f *SimFlags) SuiteOptions(requested int) []Option {
	opts := []Option{WithRunOptions(f.SimOptions()...)}
	if p := f.Parallelism(requested); p > 0 {
		opts = append(opts, WithParallelism(p))
	}
	return opts
}
