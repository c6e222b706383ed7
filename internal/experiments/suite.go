// Package experiments contains one driver per table and figure in the CAPS
// paper's evaluation (Section VI). Drivers share a memoizing Suite so that
// figures built from the same sweeps (Figs. 10, 12, 13, 15) reuse runs, and
// independent runs execute in parallel.
package experiments

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"caps/internal/config"
	"caps/internal/flight"
	"caps/internal/kernels"
	"caps/internal/lenses"
	"caps/internal/obs"
	"caps/internal/sim"
	"caps/internal/stats"
)

// Prefetchers lists the evaluated prefetchers in the paper's figure order.
var Prefetchers = []string{"intra", "inter", "mta", "nlp", "lap", "orch", "caps"}

// SchedulerFor returns the warp scheduler each prefetcher is evaluated
// with: CAPS pairs with the paper's PAS, everything else runs on the
// two-level baseline scheduler (ORCH's grouped variant is selected inside
// the simulator).
func SchedulerFor(prefetcher string) config.SchedulerKind {
	if prefetcher == "caps" {
		return config.SchedPAS
	}
	return config.SchedTwoLevel
}

// RunKey identifies one memoized simulation run.
type RunKey struct {
	Bench     string
	Prefetch  string
	Scheduler config.SchedulerKind
	MaxCTAs   int  // 0 = config default
	NoWakeup  bool // disable PAS eager wake-up (Fig. 14a ablation)
}

// Name builds a filesystem- and label-safe identifier for the run, e.g.
// "MM-caps-pas" or "CNV-lap-tlv-ctas2-nowakeup". It is the run's identity
// in exported trace/profile filenames and run tables.
func (k RunKey) Name() string {
	name := fmt.Sprintf("%s-%s-%s", k.Bench, k.Prefetch, k.Scheduler)
	if k.MaxCTAs > 0 {
		name += fmt.Sprintf("-ctas%d", k.MaxCTAs)
	}
	if k.NoWakeup {
		name += "-nowakeup"
	}
	return name
}

// Suite memoizes and parallelizes simulation runs. Construct one with
// NewSuite; behavior beyond the base configuration is selected through
// functional options (WithParallelism, WithBenches, WithObs).
type Suite struct {
	cfg         config.GPUConfig
	parallelism int
	// benches restricts the benchmark set (Table IV abbreviations);
	// empty means all sixteen. Tests and quick benches use subsets.
	benches []string

	// Observability plumbing (WithObs): newSink builds a per-run sink
	// before the simulation; runDone, when set, receives the sink after
	// the run completed.
	newSink func(RunKey) *obs.Sink
	runDone func(RunKey, *obs.Sink)

	// flightDir, when set (WithFlight), attaches a flight recorder to
	// every run and writes "<dir>/<name>.flight.jsonl" if the run dies.
	flightDir string
	flightErr func(RunKey, error)

	// runOpts (WithRunOptions) are simulator options appended after the
	// suite's own prefetcher, sink, lens and flight-recorder options.
	runOpts []sim.Option

	// lenses (WithLens) ride every run in registration order.
	lenses []*suiteLens

	// stopped flips when Interrupt is called; running tracks in-flight
	// GPUs so the interrupt can reach them.
	stopped bool
	running map[RunKey]*sim.GPU

	mu       sync.Mutex
	cache    map[RunKey]*stats.Sim
	failures map[RunKey]error
}

// Option configures a Suite at construction time.
type Option func(*Suite)

// WithParallelism bounds the number of concurrently executing simulations
// (default: GOMAXPROCS). Values below 1 are ignored.
func WithParallelism(n int) Option {
	return func(s *Suite) {
		if n > 0 {
			s.parallelism = n
		}
	}
}

// WithBenches restricts the suite to a benchmark subset (Table IV
// abbreviations); an empty slice keeps the full set.
func WithBenches(benches []string) Option {
	return func(s *Suite) { s.benches = benches }
}

// WithObs attaches per-run observability: newSink is called before each
// simulation to build that run's sink (return nil to skip a run), and
// runDone — optional — receives the sink once the run completed, for
// exporting traces or metrics (lens profiles ride WithLens). Memoized
// (cached) runs do not re-invoke either hook. Both callbacks may run
// concurrently from Warm's workers and must be safe for that.
func WithObs(newSink func(RunKey) *obs.Sink, runDone func(RunKey, *obs.Sink)) Option {
	return func(s *Suite) {
		s.newSink = newSink
		s.runDone = runDone
	}
}

// suiteLens is one registry lens riding every run, with the hook that
// receives its profiles.
type suiteLens struct {
	*lenses.Lens
	done func(RunKey, lenses.Profile)
}

// WithLens attaches l (see internal/lenses) to every run; attach each lens
// once. fn — optional — receives each successful run's built profile
// (capsweep writes it to the lens's -dir). A profile that fails its
// Validate fails the run: the fold is an instrumentation bug, not a result
// to write out silently wrong. A Timed lens is the exception
// — its check is statistical, so the profile is kept unvalidated. Lenses
// only observe: cycles, hashes and BENCH_caps.json stay bit-identical.
func WithLens(l *lenses.Lens, fn func(RunKey, lenses.Profile)) Option {
	return func(s *Suite) { s.lenses = append(s.lenses, &suiteLens{Lens: l, done: fn}) }
}

// WithFlight attaches a flight recorder to every run; a run that dies
// (invariant violation, watchdog, panic) leaves its black box at
// "<dir>/<run-name>.flight.jsonl" for capscope decode. onErr (may be nil)
// reports dump write failures; they never fail the simulation itself.
func WithFlight(dir string, onErr func(RunKey, error)) Option {
	return func(s *Suite) {
		s.flightDir = dir
		s.flightErr = onErr
	}
}

// WithRunOptions appends functional simulator options
// (sim.WithProgressEvery, ...) to every run. They apply after the suite's own
// settings, so they win conflicts; that also makes them the hook for
// per-run knobs the suite has no dedicated option for (the watchdog
// window, the progress beat, fault injection in tests). Overriding the
// sink or the flight recorder here bypasses the suite's own plumbing;
// don't.
func WithRunOptions(opts ...sim.Option) Option {
	return func(s *Suite) { s.runOpts = append(s.runOpts, opts...) }
}

// NewSuite creates a suite over the given base configuration.
func NewSuite(cfg config.GPUConfig, opts ...Option) *Suite {
	s := &Suite{
		cfg:         cfg,
		parallelism: runtime.GOMAXPROCS(0),
		cache:       make(map[RunKey]*stats.Sim),
		failures:    make(map[RunKey]error),
		running:     make(map[RunKey]*sim.GPU),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Interrupt asks every in-flight run to stop at its next beat and makes
// all future runs fail fast with sim.ErrInterrupted. Safe to call from a
// signal-handling goroutine; interrupted runs land in Failures, so drivers
// that already summarize failures exit non-zero for free.
func (s *Suite) Interrupt() {
	s.mu.Lock()
	s.stopped = true
	for _, g := range s.running { //simcheck:allow detlint — stop order is irrelevant
		g.RequestStop()
	}
	s.mu.Unlock()
}

// Config returns the suite's base configuration.
func (s *Suite) Config() config.GPUConfig { return s.cfg }

func (s *Suite) configFor(k RunKey) config.GPUConfig {
	return config.Derive(s.cfg, config.Overrides{
		Scheduler:     k.Scheduler,
		MaxCTAsPerSM:  k.MaxCTAs,
		DisableWakeup: k.NoWakeup,
	})
}

// Run executes (or returns the memoized result of) one simulation. Errors
// are additionally recorded in the suite's failure set (see Failures) so
// drivers can continue past a broken configuration and summarize at exit.
func (s *Suite) Run(k RunKey) (*stats.Sim, error) {
	s.mu.Lock()
	if st, ok := s.cache[k]; ok {
		s.mu.Unlock()
		return st, nil
	}
	s.mu.Unlock()

	st, err := s.runOnce(k)
	if err != nil {
		s.mu.Lock()
		s.failures[k] = err
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Lock()
	s.cache[k] = st
	s.mu.Unlock()
	return st, nil
}

func (s *Suite) runOnce(k RunKey) (*stats.Sim, error) {
	kernel, err := kernels.ByAbbr(k.Bench)
	if err != nil {
		return nil, err
	}
	var snk *obs.Sink
	if s.newSink != nil {
		snk = s.newSink(k)
	}
	opts := []sim.Option{sim.WithPrefetcher(k.Prefetch), sim.WithObs(snk)}
	builds := make([]func(lenses.Run, *stats.Sim) lenses.Profile, len(s.lenses))
	for i, sl := range s.lenses {
		var opt sim.Option
		opt, builds[i] = sl.Attach(s.configFor(k))
		opts = append(opts, opt)
	}
	if s.flightDir != "" {
		onDump := func(d *flight.Dump) {
			path := filepath.Join(s.flightDir, k.Name()+".flight.jsonl")
			if werr := d.WriteFile(path); werr != nil && s.flightErr != nil {
				s.flightErr(k, werr)
			}
		}
		opts = append(opts, sim.WithFlight(sim.NewFlightRecorder(s.configFor(k))), sim.WithOnDump(onDump))
	}
	g, err := sim.New(s.configFor(k), kernel, append(opts, s.runOpts...)...)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", k.Bench, k.Prefetch, err)
	}

	// Register for Interrupt; a stop requested before registration must
	// still reach this run, so re-check under the same lock.
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil, fmt.Errorf("experiments: %s/%s: %w", k.Bench, k.Prefetch, sim.ErrInterrupted)
	}
	s.running[k] = g
	s.mu.Unlock()
	st, err := g.Run()
	s.mu.Lock()
	delete(s.running, k)
	s.mu.Unlock()

	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", k.Bench, k.Prefetch, err)
	}
	run := lenses.Run{Bench: k.Bench, Prefetcher: k.Prefetch, Scheduler: string(s.configFor(k).Scheduler)}
	for i, sl := range s.lenses {
		p := builds[i](run, st)
		if !sl.Timed {
			if verr := sl.Validate(p, st); verr != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", k.Bench, k.Prefetch, verr)
			}
		}
		if sl.done != nil {
			sl.done(k, p)
		}
	}
	if snk != nil && s.runDone != nil {
		s.runDone(k, snk)
	}
	return st, nil
}

// RunFailure pairs a failed run with its error.
type RunFailure struct {
	Key RunKey
	Err error
}

// Failures returns every run that has failed so far, sorted by run name —
// the partial-failure summary drivers print before exiting non-zero.
func (s *Suite) Failures() []RunFailure {
	s.mu.Lock()
	keys := make([]RunKey, 0, len(s.failures))
	for k := range s.failures { //simcheck:allow detlint — collected then sorted below
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i].Name() < keys[j].Name() })
	out := make([]RunFailure, len(keys))
	s.mu.Lock()
	for i, k := range keys {
		out[i] = RunFailure{Key: k, Err: s.failures[k]}
	}
	s.mu.Unlock()
	return out
}

// Warm runs all keys in parallel, stopping at the first error.
func (s *Suite) Warm(keys []RunKey) error {
	// Filter already-cached keys.
	var todo []RunKey
	s.mu.Lock()
	for _, k := range keys {
		if _, ok := s.cache[k]; !ok {
			todo = append(todo, k)
		}
	}
	s.mu.Unlock()
	if len(todo) == 0 {
		return nil
	}

	par := s.parallelism
	if par < 1 {
		par = 1
	}
	work := make(chan RunKey)
	errs := make(chan error, par)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Keep draining even after an error so the feeder never
			// blocks; only the first error is reported.
			for k := range work {
				if _, err := s.Run(k); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
		}()
	}
	for _, k := range todo {
		work <- k
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// BaselineKey is the no-prefetch two-level configuration every figure
// normalizes against.
func BaselineKey(bench string) RunKey {
	return RunKey{Bench: bench, Prefetch: "none", Scheduler: config.SchedTwoLevel}
}

// PrefetcherKey is the standard evaluation configuration of a prefetcher.
func PrefetcherKey(bench, pf string) RunKey {
	return RunKey{Bench: bench, Prefetch: pf, Scheduler: SchedulerFor(pf)}
}

// benchNames returns the suite's benchmark set (all of Table IV unless
// restricted).
func (s *Suite) benchNames() []string {
	if len(s.benches) > 0 {
		return s.benches
	}
	all := kernels.All()
	names := make([]string, len(all))
	for i, k := range all {
		names[i] = k.Abbr
	}
	return names
}

// sweepKeys returns baseline + all prefetchers for every benchmark.
func (s *Suite) sweepKeys() []RunKey {
	var keys []RunKey
	for _, b := range s.benchNames() {
		keys = append(keys, BaselineKey(b))
		for _, pf := range Prefetchers {
			keys = append(keys, PrefetcherKey(b, pf))
		}
	}
	return keys
}

func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
