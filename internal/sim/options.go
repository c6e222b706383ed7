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
//		sim.WithWorkers(8),
//		sim.WithIdleSkip(),
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
	workers           int
	idleSkip          bool
	hostProf          *hostprof.Profiler
	// lenses are the streaming profilers riding the obs event stream
	// (WithMemLens, WithSchedLens), attached in option order.
	lenses []obs.Consumer
	// tickEvery makes Step tick every SM on every cycle, settling window
	// cycles one tick at a time: the reference the window-skip
	// differential test compares against. Tests alone set it.
	tickEvery bool
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

// WithWorkers ticks SMs on n goroutines inside each Step: workers tick
// disjoint SM shards in parallel, then a single-threaded commit phase
// drains the staged cross-SM effects (interconnect pushes, obs events,
// CTA-dispatch requests) in fixed SM order, so state hashes and statistics
// are bit-identical to the serial tick at any worker count. n is clamped
// to [1, min(NumSMs, GOMAXPROCS)] — workers beyond the CPUs actually
// available cannot run concurrently and would only add barrier hand-offs;
// 1 (the default) keeps the classic serial path with zero overhead. A GPU
// stepped manually with n > 1 owns a worker pool — call Close when done
// with it (Run does so automatically).
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithHostProf attaches a wall-clock self-profiler (see internal/hostprof):
// sampled monotonic-clock attribution of host time to the executor's
// barrier phases, per-worker busy/wait, per-SM tick-duration EWMAs, and
// the fast-forward window/abort ledger. The profiler observes and never
// feeds back — statistics, determinism hashes and every report are
// bit-identical with or without it. Call p.Build after the run (Run
// finalizes the profiler through Close) for the finished Profile.
func WithHostProf(p *hostprof.Profiler) Option {
	return func(o *options) { o.hostProf = p }
}

// WithMemLens attaches a memory-hierarchy lens (see internal/memlens) to
// the obs event stream, creating a metrics-only sink when the run has
// none. It declines the per-cycle class stream and only observes: results
// are bit-identical with or without it. Size the collector with
// memlens.ForConfig(cfg); a nil collector attaches nothing.
func WithMemLens(c *memlens.Collector) Option {
	return func(o *options) {
		if c != nil {
			o.lenses = append(o.lenses, c)
		}
	}
}

// WithSchedLens attaches a scheduler/CTA-decision lens (see
// internal/schedlens) exactly as WithMemLens attaches memlens. Size the
// collector with schedlens.ForConfig(cfg); a nil collector attaches
// nothing.
func WithSchedLens(c *schedlens.Collector) Option {
	return func(o *options) {
		if c != nil {
			o.lenses = append(o.lenses, c)
		}
	}
}

// WithIdleSkip enables idle-cycle fast-forward (see fastforward.go). Per
// SM, a tick that proves itself a no-op caches a sleep window and every
// tick inside it short-circuits past the scheduler scan; a structural
// stall whose cycles are provably identical replays in O(1), in the SMs
// and in the L2 partitions, and an SM inside a full-sleep or stall-replay
// window is not ticked at all until the window ends or a response
// arrives. Every cycle still executes a Step, so beats, caps and
// per-cycle events land exactly where they would without it, and
// statistics and state hashes are bit-identical.
func WithIdleSkip() Option {
	return func(o *options) { o.idleSkip = true }
}
