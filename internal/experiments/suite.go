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
	"caps/internal/hostprof"
	"caps/internal/kernels"
	"caps/internal/memlens"
	"caps/internal/obs"
	"caps/internal/profile"
	"caps/internal/runstore"
	"caps/internal/schedlens"
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

	// Observability plumbing: newSink (WithObs) builds a per-run sink
	// before the simulation; attach hooks (WithRunStore) decorate that
	// sink with consumers; runDone hooks receive the sink
	// afterwards together with the run's statistics. runFail hooks fire
	// instead of runDone when a started run dies (interrupt, invariant
	// violation, watchdog), with the partial stats, the error, and the
	// flight-dump path if a black box was written. When only attach hooks
	// are present a plain metrics sink is created automatically.
	newSink func(RunKey) *obs.Sink
	attach  []func(RunKey, *obs.Sink)
	runDone []func(RunKey, *obs.Sink, *stats.Sim)
	runFail []func(RunKey, *obs.Sink, *stats.Sim, error, string)

	// flightDir, when set (WithFlight), attaches a flight recorder to
	// every run and writes "<dir>/<name>.flight.jsonl" if the run dies.
	flightDir string
	flightErr func(RunKey, error)

	// runOpts (WithRunOptions) are simulator options appended after the
	// suite's own prefetcher, sink, lens and flight-recorder options.
	runOpts []sim.Option

	// hostProf (WithHostProf) hands every run a wall-clock self-profiler;
	// hostDone hooks receive the built profile after a successful run, and
	// hostProfiles keeps it for HostProfile and the run-store attach. Under
	// mu.
	hostProf     bool
	hostDone     []func(RunKey, *hostprof.Profile)
	hostProfiles map[RunKey]*hostprof.Profile

	// memLens (WithMemLens) hands every run a streaming memory-hierarchy
	// profiler; memDone hooks receive the built profile after a successful
	// run, and memProfiles keeps it for MemProfile and the run-store
	// attach. Under mu.
	memLens     bool
	memDone     []func(RunKey, *memlens.Profile)
	memProfiles map[RunKey]*memlens.Profile

	// schedLens (WithSchedLens) hands every run a streaming scheduler/CTA-
	// decision profiler; schedDone hooks receive the built profile after a
	// successful run, and schedProfiles keeps it for SchedProfile and the
	// run-store attach. Under mu.
	schedLens     bool
	schedDone     []func(RunKey, *schedlens.Profile)
	schedProfiles map[RunKey]*schedlens.Profile

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
// runDone — optional — receives the sink and the finished run's stats, for
// exporting traces, metrics, or profiles. Memoized (cached) runs do not
// re-invoke either hook. Both callbacks may run concurrently from Warm's
// workers and must be safe for that.
func WithObs(newSink func(RunKey) *obs.Sink, runDone func(RunKey, *obs.Sink, *stats.Sim)) Option {
	return func(s *Suite) {
		s.newSink = newSink
		if runDone != nil {
			s.runDone = append(s.runDone, runDone)
		}
	}
}

// WithRunStore records every completed run into store: a per-run profile
// collector is attached so the stored record carries a full capsprof
// profile (making any two stored runs diff-able with `capsd diff`), and
// the finished run is Put with its config hash and git revision. Store
// write errors are reported through onErr (may be nil to ignore them);
// they never fail the simulation itself.
func WithRunStore(store *runstore.Store, onErr func(RunKey, error)) Option {
	return func(s *Suite) {
		// Warm's workers run concurrently; pair sink→collector through a
		// mutex-guarded map keyed by the (unique, memoized) RunKey.
		var mu sync.Mutex
		collectors := make(map[RunKey]*profile.Collector)
		s.attach = append(s.attach, func(k RunKey, snk *obs.Sink) {
			col := profile.NewCollector(s.configFor(k).NumSMs)
			snk.Attach(col)
			mu.Lock()
			collectors[k] = col
			mu.Unlock()
		})
		s.runDone = append(s.runDone, func(k RunKey, snk *obs.Sink, st *stats.Sim) {
			mu.Lock()
			col := collectors[k]
			delete(collectors, k)
			mu.Unlock()
			cfg := s.configFor(k)
			var p *profile.Profile
			if col != nil {
				m := profile.Meta{Bench: k.Bench, Prefetcher: k.Prefetch, Scheduler: string(cfg.Scheduler), SMs: cfg.NumSMs}
				built, err := col.Build(m, st)
				if err != nil && onErr != nil {
					onErr(k, err)
				}
				p = built
			}
			rec := runstore.NewRecord(cfg, k.Bench, k.Prefetch, st, p)
			if hpr := s.HostProfile(k); hpr != nil {
				rec.AttachHost(hpr)
			}
			if mp := s.MemProfile(k); mp != nil {
				rec.AttachMem(mp)
			}
			if sp := s.SchedProfile(k); sp != nil {
				rec.AttachSched(sp)
			}
			if _, _, err := store.Put(rec); err != nil && onErr != nil {
				onErr(k, err)
			}
		})
		// Aborted runs are stored too — marked, under a separate dedup key,
		// with the flight-dump path when one was written — so a crashed
		// sweep leaves an inspectable trail (`capsd ls` shows ABORTED, show
		// points at the black box). No profile: the collector's cycle
		// accounting only reconciles for completed runs.
		s.runFail = append(s.runFail, func(k RunKey, snk *obs.Sink, st *stats.Sim, runErr error, dump string) {
			mu.Lock()
			delete(collectors, k)
			mu.Unlock()
			cfg := s.configFor(k)
			rec := runstore.NewRecord(cfg, k.Bench, k.Prefetch, st, nil).MarkAborted(runErr.Error(), dump)
			if _, _, err := store.Put(rec); err != nil && onErr != nil {
				onErr(k, err)
			}
		})
	}
}

// WithHostProf self-profiles every run's executor wall-clock with an
// internal/hostprof profiler (sim.WithHostProf): phase, worker, and
// fast-forward attribution at the default sampling rate. fn — optional —
// receives each successful run's built profile (capsweep writes it to
// -hostprof-dir); the profile is also retained for HostProfile. Composes
// with WithRunStore (stored records carry the host profile). Profiling
// never feeds back into the simulation: cycles, hashes, and
// BENCH_caps.json stay bit-identical.
func WithHostProf(fn func(RunKey, *hostprof.Profile)) Option {
	return func(s *Suite) {
		s.hostProf = true
		if fn != nil {
			s.hostDone = append(s.hostDone, fn)
		}
	}
}

// WithMemLens profiles every run's memory hierarchy with an
// internal/memlens collector (sim.WithMemLens): per-load-PC θ/Δ address
// structure, prefetch timeliness, sampled reuse distances, and
// DRAM/interconnect locality. fn — optional — receives each successful
// run's built profile (capsweep writes it to -memlens-dir); the profile
// is also retained for MemProfile and attached to stored records under
// WithRunStore. The collector declines the per-cycle class stream, so
// cycles, hashes, and BENCH_caps.json stay bit-identical — with or
// without the idle fast-forward.
func WithMemLens(fn func(RunKey, *memlens.Profile)) Option {
	return func(s *Suite) {
		s.memLens = true
		if fn != nil {
			s.memDone = append(s.memDone, fn)
		}
	}
}

// MemProfile returns the built memory profile of a completed run, or nil
// if the run hasn't finished or WithMemLens wasn't set.
func (s *Suite) MemProfile(k RunKey) *memlens.Profile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memProfiles[k]
}

// WithSchedLens profiles every run's scheduler and CTA decisions with an
// internal/schedlens collector (sim.WithSchedLens): CTA lifetime
// timelines, PickOutcome decision provenance, CAP/DIST table dynamics and
// leading-warp effectiveness. fn — optional — receives each successful
// run's built profile (capsweep writes it to -schedlens-dir); the profile
// is also retained for SchedProfile and attached to stored records under
// WithRunStore. The collector declines the per-cycle class stream, so
// cycles, hashes, and BENCH_caps.json stay bit-identical — with or
// without the idle fast-forward.
func WithSchedLens(fn func(RunKey, *schedlens.Profile)) Option {
	return func(s *Suite) {
		s.schedLens = true
		if fn != nil {
			s.schedDone = append(s.schedDone, fn)
		}
	}
}

// SchedProfile returns the built scheduler profile of a completed run, or
// nil if the run hasn't finished or WithSchedLens wasn't set.
func (s *Suite) SchedProfile(k RunKey) *schedlens.Profile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schedProfiles[k]
}

// HostProfile returns the built host profile of a completed run, or nil if
// the run hasn't finished or WithHostProf wasn't set.
func (s *Suite) HostProfile(k RunKey) *hostprof.Profile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hostProfiles[k]
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

// WithRunOptions appends functional simulator options (sim.WithWorkers,
// sim.WithIdleSkip, ...) to every run. They apply after the suite's own
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
		cfg:           cfg,
		parallelism:   runtime.GOMAXPROCS(0),
		cache:         make(map[RunKey]*stats.Sim),
		failures:      make(map[RunKey]error),
		running:       make(map[RunKey]*sim.GPU),
		hostProfiles:  make(map[RunKey]*hostprof.Profile),
		memProfiles:   make(map[RunKey]*memlens.Profile),
		schedProfiles: make(map[RunKey]*schedlens.Profile),
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
	if snk == nil && len(s.attach) > 0 {
		// Attach-only observability (run store): a plain metrics sink, no
		// trace buffer.
		snk = sim.NewSink(s.configFor(k), false, 0)
	}
	for _, hook := range s.attach {
		hook(k, snk)
	}
	var hp *hostprof.Profiler
	if s.hostProf {
		hp = hostprof.New(hostprof.DefaultSampleEvery)
	}
	var ml *memlens.Collector
	if s.memLens {
		ml = memlens.ForConfig(s.configFor(k))
	}
	var sl *schedlens.Collector
	if s.schedLens {
		sl = schedlens.ForConfig(s.configFor(k))
	}
	opts := []sim.Option{sim.WithPrefetcher(k.Prefetch), sim.WithObs(snk),
		sim.WithHostProf(hp), sim.WithMemLens(ml), sim.WithSchedLens(sl)}
	var dumpPath string // set by OnDump (same goroutine, inside g.Run)
	if s.flightDir != "" {
		onDump := func(d *flight.Dump) {
			path := filepath.Join(s.flightDir, k.Name()+".flight.jsonl")
			if werr := d.WriteFile(path); werr != nil {
				if s.flightErr != nil {
					s.flightErr(k, werr)
				}
				return
			}
			dumpPath = path
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
		err = fmt.Errorf("experiments: %s/%s: %w", k.Bench, k.Prefetch, err)
		if snk != nil {
			for _, hook := range s.runFail {
				hook(k, snk, g.Stats(), err, dumpPath)
			}
		}
		return nil, err
	}
	if hp != nil {
		// Build before the runDone hooks so WithRunStore's record sees the
		// profile. g.Run's deferred Close already finalized the profiler.
		pr := hp.Build(k.Bench, k.Prefetch)
		s.mu.Lock()
		s.hostProfiles[k] = pr
		s.mu.Unlock()
		for _, fn := range s.hostDone {
			fn(k, pr)
		}
	}
	if ml != nil {
		// Build before the runDone hooks so WithRunStore's record sees the
		// profile; a fold that fails reconciliation is an instrumentation
		// bug, surfaced as a run failure rather than stored silently wrong.
		p := ml.Build(memlens.Meta{Bench: k.Bench, Prefetcher: k.Prefetch, Cycles: st.Cycles})
		if verr := p.Validate(st); verr != nil {
			return nil, fmt.Errorf("experiments: %s/%s: %w", k.Bench, k.Prefetch, verr)
		}
		s.mu.Lock()
		s.memProfiles[k] = p
		s.mu.Unlock()
		for _, fn := range s.memDone {
			fn(k, p)
		}
	}
	if sl != nil {
		// Same contract as memlens: build before the runDone hooks, and a
		// fold that fails reconciliation is an instrumentation bug.
		p := sl.Build(schedlens.Meta{Bench: k.Bench, Prefetcher: k.Prefetch,
			Scheduler: string(s.configFor(k).Scheduler), Cycles: st.Cycles})
		if verr := p.Validate(st); verr != nil {
			return nil, fmt.Errorf("experiments: %s/%s: %w", k.Bench, k.Prefetch, verr)
		}
		s.mu.Lock()
		s.schedProfiles[k] = p
		s.mu.Unlock()
		for _, fn := range s.schedDone {
			fn(k, p)
		}
	}
	if snk != nil {
		for _, hook := range s.runDone {
			hook(k, snk, st)
		}
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
