package sim

import (
	"caps/internal/config"
	"caps/internal/flight"
	"caps/internal/hostprof"
	"caps/internal/memlens"
	"caps/internal/obs"
	"caps/internal/schedlens"
)

// Option configures one GPU run. Build a simulator with
//
//	g, err := sim.New(cfg, kernel,
//		sim.WithPrefetcher("caps"),
//		sim.WithObs(snk))
//
// Options compose left to right: a later option overrides an earlier one
// that touches the same knob.
type Option func(*options)

// options is the resolved configuration for one run; each field is set by
// the With* option of the same name (sink by WithObs).
type options struct {
	prefetcher        string
	scheduler         config.SchedulerKind
	sink              *obs.Sink
	flight            *flight.Recorder
	onDump            func(*flight.Dump)
	progressEvery     int64
	watchdogCycles    int64
	injectViolation   int64
	perturbPrefetchAt int64
	hostProf          *hostprof.Profiler
	// lenses are the streaming profilers riding the obs event stream
	// (WithConsumer), attached in option order.
	lenses []obs.Consumer
	// tickEvery makes Step tick every SM on every cycle, settling window
	// cycles one tick at a time: the reference the window-skip
	// differential test compares against. Tests alone set it.
	tickEvery bool
	// tickEveryPart makes Step tick every L2 partition on every cycle,
	// due or not, so a quiet retry queue counts its fails one tick at a
	// time: the reference the quiet-span differential compares against.
	// Tests alone set it.
	tickEveryPart bool
	// noFastForward keeps every SM on the plain per-cycle pipeline: no
	// sleep or stall-replay window ever opens (see fastforward.go). The
	// reference the fast-forward differential tests compare against;
	// tests alone set it.
	noFastForward bool
}

// WithPrefetcher selects a registered prefetcher by name ("none", "caps",
// "intra", "inter", "lap", "nlp", "orch", ...). Unset defaults to "none".
func WithPrefetcher(name string) Option {
	return func(o *options) { o.prefetcher = name }
}

// WithScheduler overrides cfg.Scheduler for this run when non-empty.
func WithScheduler(k config.SchedulerKind) Option {
	return func(o *options) { o.scheduler = k }
}

// WithObs attaches an observability sink: metrics and (if the sink was
// built with tracing) cycle-stamped events from every simulator layer. A
// nil sink costs one branch per event site.
func WithObs(s *obs.Sink) Option {
	return func(o *options) { o.sink = s }
}

// WithFlight attaches a black-box flight recorder (see internal/flight):
// the last N events per unit, dumped with a machine-state snapshot when
// the run dies. When no sink is attached a metrics-only sink is created to
// carry the event stream. Use NewFlightRecorder to size one for the config.
func WithFlight(r *flight.Recorder) Option {
	return func(o *options) { o.flight = r }
}

// WithOnDump registers the callback that receives every black box the run
// writes (violation, panic, watchdog, dump request, or explicit DumpNow).
func WithOnDump(fn func(*flight.Dump)) Option {
	return func(o *options) { o.onDump = fn }
}

// WithProgressEvery paces the EvProgress beat, the stop/dump-request polls
// and the watchdog check, in cycles; rounded up to a power of two. Zero
// selects DefaultProgressEvery; New rejects a period above
// MaxProgressEvery, which has no int64 power of two to round up to.
func WithProgressEvery(cycles int64) Option {
	return func(o *options) { o.progressEvery = cycles }
}

// WithWatchdogCycles aborts the run when no instruction retires for this
// many cycles. Zero selects DefaultWatchdogCycles; negative disables the
// watchdog.
func WithWatchdogCycles(cycles int64) Option {
	return func(o *options) { o.watchdogCycles = cycles }
}

// WithInjectViolation raises a synthetic invariant violation once the GPU
// reaches the given cycle — the flight-smoke hook.
func WithInjectViolation(cycle int64) Option {
	return func(o *options) { o.injectViolation = cycle }
}

// WithPerturbPrefetchAt arms a one-shot perturbation on SM 0: the first
// prefetch candidate enqueued at or after that cycle has its line address
// shifted by one line. Divergence-localizer tests use it to plant a known
// first-divergent cycle.
func WithPerturbPrefetchAt(cycle int64) Option {
	return func(o *options) { o.perturbPrefetchAt = cycle }
}

// WithHostProf attaches a wall-clock self-profiler (see internal/hostprof):
// sampled monotonic-clock attribution of host time to the phases of
// Step, the SM-tick busy time, per-SM tick-duration EWMAs, and
// the fast-forward window/abort ledger. The profiler observes and never
// feeds back — statistics, determinism hashes and every report are
// bit-identical with or without it. Call p.Build after the run (Run
// finalizes the profiler through Close) for the finished Profile.
func WithHostProf(p *hostprof.Profiler) Option {
	return func(o *options) { o.hostProf = p }
}

// WithConsumer attaches a streaming profiler (a lens collector: the
// stall-stack profile, memlens, schedlens) to the obs event stream,
// creating a metrics-only sink when the run has none. Consumers attach in
// option order and only observe: results are bit-identical with or
// without them. A nil consumer attaches nothing.
func WithConsumer(c obs.Consumer) Option {
	return func(o *options) {
		if c != nil {
			o.lenses = append(o.lenses, c)
		}
	}
}

// WithMemLens attaches a memlens collector through WithConsumer; a nil
// collector attaches nothing.
//
// Deprecated: use WithConsumer.
func WithMemLens(c *memlens.Collector) Option {
	if c == nil {
		return nil
	}
	return WithConsumer(c)
}

// WithSchedLens attaches a schedlens collector through WithConsumer; a nil
// collector attaches nothing.
//
// Deprecated: use WithConsumer.
func WithSchedLens(c *schedlens.Collector) Option {
	if c == nil {
		return nil
	}
	return WithConsumer(c)
}

// WithIdleSkip is a no-op kept for callers written when the idle-cycle
// fast-forward (see fastforward.go) was opt-in; every run now uses it.
//
// Deprecated: the fast-forward is always on. Drop the option.
func WithIdleSkip() Option {
	return func(*options) {}
}

// WithWorkers is a no-op kept for callers written when SMs could tick on
// a pool of goroutines; every run now ticks its SMs serially.
//
// Deprecated: the simulator has one serial executor. Drop the option.
func WithWorkers(int) Option {
	return func(*options) {}
}
