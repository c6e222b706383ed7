// Package hostprof attributes the simulator's wall-clock cost — where
// capsprof (internal/profile) explains every *simulated* cycle, hostprof
// explains every *host* nanosecond. It is the instrument the executor
// tuning work steers by: which barrier phase of the parallel Step the time
// goes to, how evenly the tick workers are loaded, and how much the idle
// fast-forward actually saves (windows opened vs aborted, cycles skipped
// vs ticked, replay cost billed to the schedulers).
//
// The profiler rides inside GPU.Step and must not perturb what it
// measures, so it follows the flight-recorder discipline: the hot path is
// allocation-free (hotlint-audited via the //caps:hotpath annotations
// below) and the monotonic clock is read only on *sampled* steps — one
// step in SampleEvery — batching the clock cost down to a few nanoseconds
// per simulated cycle. Everything always-on is a branch plus an integer
// increment. The sampled phase spans are extrapolated to the full run in
// Build; the committed invariant between the extrapolation and the
// independently measured run wall-clock is checked by Profile.Validate.
//
// hostprof observes the executor and never feeds back into it: no
// simulator state depends on a Profiler, so statistics, determinism
// hashes and BENCH_caps.json are bit-identical with or without one.
package hostprof

import (
	"runtime"
	"time"
)

// Phase indexes the barrier phases of GPU.Step that sampled wall-clock is
// attributed to. PhaseOther covers Step's bookkeeping outside the three
// real phases (the idle-wake scan, injection checks); the Profile adds a
// synthetic "loop" bucket for Run-loop time outside Step entirely (the
// workload-drain scan, beat processing, watchdog).
type Phase uint8

const (
	// PhaseOther: Step bookkeeping before the memory phase — the
	// idle fast-forward wake scan and the violation-injection check.
	PhaseOther Phase = iota
	// PhaseMem: the serial memory prologue — DRAM channel ticks, response
	// delivery, and partition (L2) ticks.
	PhaseMem
	// PhaseSM: the SM phase — the congestion precheck plus every SM tick,
	// parallel fan-out and barrier included when workers > 1.
	PhaseSM
	// PhaseCommit: the single-threaded commit — staged interconnect
	// drains and obs replay in SM order, CTA dispatch, cycle bookkeeping.
	PhaseCommit

	NumPhases
)

// phaseNames are the JSON/report labels, indexed by Phase.
var phaseNames = [NumPhases]string{"other", "mem", "sm", "commit"}

// String returns the phase's report label.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseLoop labels the synthetic Profile bucket holding run wall-clock
// outside Step: the Run loop's workload-drain scan, the beat, the
// watchdog, plus the extrapolation residue of sampling itself.
const PhaseLoop = "loop"

// DefaultSampleEvery is the default sampling period in executor steps;
// rounded up to a power of two so the hot-path test is one mask compare.
const DefaultSampleEvery = 64

// OutlierStepNS bounds one sampled step's wall-clock when the profiler
// samples fewer than every step. A step costs microseconds; one above the
// bound absorbed a host stall (a GC pause, a descheduling), and
// multiplying it by the sample period would bill that stall to the run
// SampleEvery times over. Such a step is left out of the extrapolation and
// counted in Profile.OutlierSteps; its time stays in the run wall-clock,
// where the loop bucket absorbs it.
const OutlierStepNS = 1_000_000

// Context records the host the run executed on — everything a reader
// needs to decide whether two wall-clock measurements are comparable.
type Context struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	IdleSkip   bool   `json:"idle_skip"`
}

// CaptureContext snapshots the current host plus the run's executor
// tuning. workers is the run's tick-worker count — the simulator passes
// the resolved (clamped) value; report builders pass the requested one,
// with GOMAXPROCS/NumCPU recording what the machine could actually run.
func CaptureContext(workers int, idleSkip bool) Context {
	return Context{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		IdleSkip:   idleSkip,
	}
}

// SMProf is one SM's always-on fast-forward ledger. Each instance is
// owned by the goroutine ticking that SM — the parallel executor assigns
// SMs to disjoint worker shards — so the increments need no
// synchronization and stay visible through the barrier that already
// orders every per-SM write.
type SMProf struct {
	// Slept-cycle tallies, one increment per short-circuited tick.
	FullSleepCycles   int64 `json:"full_sleep_cycles"`
	IssueSleepCycles  int64 `json:"issue_sleep_cycles"`
	StallReplayCycles int64 `json:"stall_replay_cycles"`

	// Windows opened, by kind (trySleep / tryStallReplay verdicts).
	FullWindows  int64 `json:"full_windows"`
	IssueWindows int64 `json:"issue_windows"`
	StallWindows int64 `json:"stall_windows"`

	// Windows aborted before their bound, by wake reason: a response fill,
	// a CTA launch, or pumpLSU retiring a warp's last outstanding access.
	AbortFill   int64 `json:"abort_fill"`
	AbortLaunch int64 `json:"abort_launch"`
	AbortRetire int64 `json:"abort_retire"`
}

// Profiler measures one run. Build one with New, hand it to the run with
// sim.WithHostProf, and call Build after the run for the Profile. All hot
// methods are safe on a nil receiver (one branch), so the executor wires
// them unconditionally.
type Profiler struct {
	epoch     time.Time // monotonic zero; every span is ns since epoch
	mask      int64     // sampleEvery-1 (power of two minus one)
	every     int64
	clockCost int64 // calibrated ns per clock() call (see Init)

	// Step sampling state (owned by the executor goroutine).
	steps     int64 // Step calls so far
	sampled   int64 // completed sampled steps
	sampling  bool  // current step is sampled (workers read it post-barrier-handoff)
	stepStart int64
	mark      int64
	phaseNS   [NumPhases]int64 // raw sampled ns per phase, kept steps only
	sampledNS int64            // raw sampled ns, all phases, kept steps only
	// stepNS, stepBusy and stepTicks hold the current sampled step's spans
	// until EndStep keeps them or drops the step as an outlier.
	stepNS    [NumPhases]int64
	stepBusy  []int64
	stepTicks []int64
	outliers  int64 // sampled steps dropped above OutlierStepNS
	outlierNS int64 // their total wall-clock

	startNS int64 // Run start, ns since epoch
	wallNS  int64 // Run wall-clock, set by Finish
	started bool
	done    bool

	ctx   Context
	bench string

	// Per-worker busy time and tick counts on kept sampled steps; slot w
	// of stepBusy/stepTicks is written only by worker w, and EndStep folds
	// them in after the barrier.
	workerBusy  []int64
	workerTicks []int64
	// Per-SM tick-duration EWMA (alpha 1/8) over sampled steps; slot i is
	// written only by the worker that owns SM i.
	smEWMA []int64
	sm     []SMProf

	// Scheduler replay cost, gathered from sched.StallCoster at Close.
	replayFlushes int64
	replayPicks   int64
}

// New builds a profiler sampling one step in sampleEvery (rounded up to a
// power of two; <=0 selects DefaultSampleEvery). The profiler is inert
// until a run initializes it through sim.WithHostProf.
func New(sampleEvery int64) *Profiler {
	if sampleEvery <= 0 {
		sampleEvery = DefaultSampleEvery
	}
	p := int64(1)
	for p < sampleEvery {
		p <<= 1
	}
	return &Profiler{every: p, mask: p - 1}
}

// Init sizes the profiler for a run: the resolved SM and worker counts
// plus the host context. The simulator calls it from sim.New; nil-safe.
func (p *Profiler) Init(numSMs, workers int, idleSkip bool) {
	if p == nil {
		return
	}
	p.epoch = time.Now() //simcheck:allow detlint — wall time is the measurement itself; it never reaches simulator state
	p.ctx = CaptureContext(workers, idleSkip)
	p.workerBusy = make([]int64, workers)
	p.workerTicks = make([]int64, workers)
	p.stepBusy = make([]int64, workers)
	p.stepTicks = make([]int64, workers)
	p.smEWMA = make([]int64, numSMs)
	p.sm = make([]SMProf, numSMs)

	// Calibrate the cost of one clock read. Sampled steps bracket every SM
	// tick with two reads, all inside the SM-phase span; on fast-forward
	// plateaus a replayed tick costs little more than the reads themselves,
	// so uncorrected spans overstate the step cost by up to ~50% and the
	// extrapolation blows the Validate tolerance. SMTick and Build subtract
	// the calibrated cost. Min of a few batches: a descheduling mid-batch
	// must inflate one batch, not the calibration (overcorrecting would
	// bias the estimate low instead).
	const batches, per = 4, 64
	cost := int64(1 << 62)
	for b := 0; b < batches; b++ {
		t0 := p.clock()
		for i := 0; i < per; i++ {
			_ = p.clock()
		}
		if d := (p.clock() - t0) / per; d < cost {
			cost = d
		}
	}
	p.clockCost = cost
}

// SMProf returns SM i's always-on fast-forward ledger (nil on a nil
// profiler, which every SM-side site guards with one branch).
func (p *Profiler) SMProf(i int) *SMProf {
	if p == nil || i >= len(p.sm) {
		return nil
	}
	return &p.sm[i]
}

// Context returns the captured host context.
func (p *Profiler) Context() Context {
	if p == nil {
		return Context{}
	}
	return p.ctx
}

// clock returns ns since epoch off the monotonic clock.
//
//caps:hotpath
func (p *Profiler) clock() int64 {
	return int64(time.Since(p.epoch)) //simcheck:allow detlint — wall time is the measurement itself; it never reaches simulator state
}

// Clock returns ns since the profiler's epoch; the executor times
// individual SM ticks with it on sampled steps (only called when
// Sampling() is true, hence non-nil).
//
//caps:hotpath
func (p *Profiler) Clock() int64 { return p.clock() }

// Start marks the beginning of the measured run (Run's first act).
func (p *Profiler) Start() {
	if p == nil || p.started {
		return
	}
	p.started = true
	p.startNS = p.clock()
}

// Finish closes the run's wall-clock span. Idempotent; GPU.Close calls it
// on every exit path.
func (p *Profiler) Finish() {
	if p == nil || !p.started || p.done {
		return
	}
	p.done = true
	p.wallNS = p.clock() - p.startNS
}

// BeginStep opens one executor step and reports whether it is sampled.
// The unsampled fast path is one increment and one mask test.
//
//caps:hotpath
func (p *Profiler) BeginStep() bool {
	if p == nil {
		return false
	}
	p.steps++
	if p.steps&p.mask != 1&p.mask {
		p.sampling = false
		return false
	}
	p.sampling = true
	// A step that errored out never reached EndStep: drop its spans.
	p.stepNS = [NumPhases]int64{}
	clear(p.stepBusy)
	clear(p.stepTicks)
	now := p.clock()
	p.stepStart = now
	p.mark = now
	return true
}

// Sampling reports whether the current step is sampled. Tick workers read
// it after the cycle hand-off (the channel send orders it after
// BeginStep's write) to decide whether to time their shard.
//
//caps:hotpath
func (p *Profiler) Sampling() bool { return p != nil && p.sampling }

// MarkPhase closes the span since the previous boundary and bills it to
// ph. Only called on sampled steps (Sampling() true).
//
//caps:hotpath
func (p *Profiler) MarkPhase(ph Phase) {
	now := p.clock()
	p.stepNS[ph] += now - p.mark
	p.mark = now
}

// EndStep closes the sampled step, billing the final span to ph, and
// keeps the step's spans unless it is an outlier (see OutlierStepNS).
//
//caps:hotpath
func (p *Profiler) EndStep(ph Phase) {
	now := p.clock()
	p.stepNS[ph] += now - p.mark
	p.sampling = false
	d := now - p.stepStart
	if p.every > 1 && d > OutlierStepNS {
		p.outliers++
		p.outlierNS += d
		return
	}
	for i, ns := range p.stepNS {
		p.phaseNS[i] += ns
	}
	for w := range p.stepBusy {
		p.workerBusy[w] += p.stepBusy[w]
		p.workerTicks[w] += p.stepTicks[w]
	}
	p.sampledNS += d
	p.sampled++
}

// SMTick records one timed SM tick on a sampled step: ns of busy time for
// worker w and an EWMA update for the SM. Worker w writes only its own
// slots; SM i's EWMA is written only by the worker that owns it.
//
//caps:hotpath
func (p *Profiler) SMTick(smID, w int, ns int64) {
	// The measured span contains roughly one clock-call's worth of read
	// overhead (the exit of the opening read plus the entry of the closing
	// one); subtract the calibrated cost so cheap replayed ticks aren't
	// dominated by their own measurement.
	ns -= p.clockCost
	if ns < 0 {
		ns = 0
	}
	p.stepBusy[w] += ns
	p.stepTicks[w]++
	e := p.smEWMA[smID]
	if e == 0 {
		e = ns
	} else {
		e += (ns - e) >> 3
	}
	p.smEWMA[smID] = e
}

// AddReplayCost accumulates scheduler stall-replay cost (flushed batched
// StallTick calls and the Pick equivalents they replayed), gathered from
// sched.StallCoster implementations when the run closes.
func (p *Profiler) AddReplayCost(flushes, picks int64) {
	if p == nil {
		return
	}
	p.replayFlushes += flushes
	p.replayPicks += picks
}
