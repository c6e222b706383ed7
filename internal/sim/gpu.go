package sim

import (
	"errors"
	"fmt"
	"sync/atomic"

	"caps/internal/config"
	// Register the CAPS prefetcher alongside the baselines.
	_ "caps/internal/core"
	"caps/internal/flight"
	"caps/internal/hostprof"
	"caps/internal/invariant"
	"caps/internal/kernels"
	"caps/internal/mem"
	"caps/internal/obs"
	"caps/internal/prefetch"
	"caps/internal/sched"
	"caps/internal/stats"
)

// DefaultProgressEvery is the EvProgress beat period when
// WithProgressEvery leaves it zero: frequent enough that an interrupt or a
// dump request is answered promptly, rare enough to be free. The same clock
// paces the stop/dump request polls and is the base the determinism
// harness's checkpoint interval rounds to.
const DefaultProgressEvery int64 = 1 << 13

// MaxProgressEvery is the longest beat period WithProgressEvery accepts:
// the largest power of two an int64 holds, which the period rounds up to.
const MaxProgressEvery int64 = 1 << 62

// DefaultWatchdogCycles is how long the forward-progress watchdog waits
// for an instruction to retire before declaring the run hung.
const DefaultWatchdogCycles int64 = 2_000_000

// ErrInterrupted reports a run stopped early by RequestStop (SIGINT): the
// machine is consistent and partial statistics are valid, but the workload
// did not finish.
var ErrInterrupted = errors.New("sim: run interrupted")

// GPU is the full simulated machine for one kernel run.
type GPU struct {
	cfg    config.GPUConfig
	kernel *kernels.Kernel
	st     *stats.Sim
	// memSt holds the counters only the DRAM channels and L2 partitions
	// write (DRAM reads and row hits/misses, stores issued, L2 accesses
	// and hits), apart from st so the two domains share no cache line
	// when they run on two goroutines; Stats merges it into st.
	memSt *stats.Sim

	sms   []*SM
	icnt  *mem.Interconnect
	parts []*mem.Partition
	drams []*mem.DRAMChannel

	nextCTA int
	cycle   int64

	// dispatchReq queues SMs whose CTA completed and want a new one.
	dispatchReq []int

	// snk is the run's observability sink (nil when disabled).
	snk *obs.Sink

	// tickEvery disables window skipping (see options.tickEvery), and
	// tickEveryPart partition wake gating (options.tickEveryPart).
	tickEvery     bool
	tickEveryPart bool

	// serial keeps Run from overlapping the memory domain with the SMs
	// (see overlap.go): the test references are serial runs.
	serial bool
	// dom is the memory domain's goroutine while Run overlaps it, and
	// overlapped records that Run did for some part of the run.
	dom        *domain
	overlapped bool

	// hprof is the optional wall-clock self-profiler (WithHostProf); nil
	// costs one branch per step. It observes only — no simulator state
	// reads it back.
	hprof     *hostprof.Profiler
	hprofDone bool

	// Flight-recorder wiring (nil/zero when not requested).
	flight   *flight.Recorder
	onDump   func(*flight.Dump)
	beatMask int64 // ProgressEvery-1 (power of two minus one)
	watchdog int64 // forward-progress window in cycles; <=0 disables
	injectAt int64 // one-shot synthetic violation cycle (flight smoke)
	prefName string

	// stopReq/dumpReq are the only GPU state touched from other
	// goroutines (signal handlers); Run polls them on the beat.
	stopReq atomic.Bool
	dumpReq atomic.Bool
}

// NewSink builds an observability sink sized for the configuration (one
// track per SM, memory partition and DRAM channel).
func NewSink(cfg config.GPUConfig, trace bool, traceCap int) *obs.Sink {
	return obs.New(obs.Config{
		SMs:        cfg.NumSMs,
		Partitions: cfg.NumPartitions,
		Channels:   cfg.DRAM.Channels,
		Trace:      trace,
		TraceCap:   traceCap,
	})
}

// New builds a GPU for one kernel run. Configuration arrives as functional
// options (WithPrefetcher, WithObs, ...).
func New(cfg config.GPUConfig, k *kernels.Kernel, opts ...Option) (*GPU, error) {
	var opt options
	for _, op := range opts {
		if op != nil {
			op(&opt)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid config: %w", err)
	}
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid kernel: %w", err)
	}
	if cfg.L1.LineBytes != kernels.LineBytes {
		return nil, fmt.Errorf("sim: L1 line size %d must match kernels.LineBytes %d",
			cfg.L1.LineBytes, kernels.LineBytes)
	}
	beat, err := ProgressPeriod(opt.progressEvery)
	if err != nil {
		return nil, err
	}
	if opt.scheduler != "" {
		cfg.Scheduler = opt.scheduler
	}
	if opt.prefetcher == "" {
		opt.prefetcher = "none"
	}
	// The flight recorder rides the observability event stream; a run that
	// asked for one without a sink gets a metrics-only sink to carry it.
	if opt.flight != nil {
		if opt.sink == nil {
			opt.sink = NewSink(cfg, false, 0)
		}
		opt.sink.Attach(opt.flight)
	}
	// The lens collectors (memlens, schedlens) share the same stream; they
	// decline the per-cycle class feed.
	for _, c := range opt.lenses {
		if opt.sink == nil {
			opt.sink = NewSink(cfg, false, 0)
		}
		opt.sink.Attach(c)
	}
	// ORCH is LAP paired with the prefetch-aware grouped scheduler
	// (Jog ISCA'13); selecting it swaps the two-level scheduler for the
	// group-interleaved variant.
	interleaved := opt.prefetcher == "orch" && cfg.Scheduler == config.SchedTwoLevel

	st, memSt := &stats.Sim{}, &stats.Sim{}
	g := &GPU{cfg: cfg, kernel: k, st: st, memSt: memSt, snk: opt.sink,
		flight:        opt.flight,
		onDump:        opt.onDump,
		beatMask:      beat - 1,
		watchdog:      opt.watchdogCycles,
		injectAt:      opt.injectViolation,
		prefName:      opt.prefetcher,
		tickEvery:     opt.tickEvery,
		tickEveryPart: opt.tickEveryPart,
		serial:        opt.serial || opt.tickEvery || opt.tickEveryPart || opt.noFastForward,
	}
	if g.watchdog == 0 {
		g.watchdog = DefaultWatchdogCycles
	}
	g.hprof = opt.hostProf
	g.hprof.Init(cfg.NumSMs)
	g.icnt = mem.NewInterconnect(cfg.NumSMs, cfg.NumPartitions, cfg.ICNTQueue, cfg.ICNTLatency, cfg.ICNTWidth)

	g.drams = make([]*mem.DRAMChannel, cfg.DRAM.Channels)
	for i := range g.drams {
		g.drams[i] = mem.NewDRAMChannel(cfg, memSt)
		g.drams[i].AttachObs(opt.sink, i)
		if cfg.CheckInvariants {
			g.drams[i].EnableSanitizer(fmt.Sprintf("DRAM[%d]", i))
		}
	}
	g.parts = make([]*mem.Partition, cfg.NumPartitions)
	for i := range g.parts {
		g.parts[i] = mem.NewPartition(i, cfg, g.drams[i%cfg.DRAM.Channels], g.icnt, memSt)
		g.parts[i].AttachObs(opt.sink)
	}

	g.sms = make([]*SM, cfg.NumSMs)
	for i := range g.sms {
		pf, err := prefetch.New(opt.prefetcher, cfg, st)
		if err != nil {
			return nil, err
		}
		sc, err := newScheduler(cfg, interleaved)
		if err != nil {
			return nil, err
		}
		g.sms[i] = newSM(i, cfg, k, sc, pf, g.icnt, st, g.requestDispatch)
		if opt.noFastForward {
			// Without these capabilities no window can be proven.
			g.sms[i].stallSR, g.sms[i].quiescer = nil, nil
		}
		g.sms[i].clock = &g.cycle
		g.sms[i].hprof = g.hprof.SMProf(i)
		g.sms[i].AttachObs(opt.sink)
	}
	if opt.perturbPrefetchAt > 0 {
		g.sms[0].perturbAt = opt.perturbPrefetchAt
	}

	g.initialDispatch()
	return g, nil
}

// ProgressPeriod is the beat period WithProgressEvery(v) runs at: v rounded
// up to a power of two, so Run's beat check stays a mask test, with
// DefaultProgressEvery for a non-positive v. A v above MaxProgressEvery has
// no int64 power of two to round to and is rejected.
func ProgressPeriod(v int64) (int64, error) {
	if v <= 0 {
		v = DefaultProgressEvery
	}
	if v > MaxProgressEvery {
		return 0, fmt.Errorf("sim: progress period %d exceeds the maximum %d", v, MaxProgressEvery)
	}
	p := int64(1)
	for p < v {
		p <<= 1
	}
	return p, nil
}

// newScheduler resolves cfg.Scheduler through the sched registry. ORCH's
// interleaved flag redirects the two-level baseline to its grouped variant;
// everything else is a straight name lookup, so schedulers registered by
// other packages are selectable without touching this switch point.
func newScheduler(cfg config.GPUConfig, interleaved bool) (sched.Scheduler, error) {
	name := string(cfg.Scheduler)
	if interleaved && cfg.Scheduler == config.SchedTwoLevel {
		name = "tlv-grouped"
	}
	sc, err := sched.New(name, cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return sc, nil
}

// initialDispatch assigns CTAs to SMs one at a time in round-robin order
// until every SM is full or the grid is exhausted (Section II-B).
func (g *GPU) initialDispatch() {
	total := g.kernel.NumCTAs()
	for assignedAny := true; assignedAny; {
		assignedAny = false
		for _, sm := range g.sms {
			if g.nextCTA >= total {
				return
			}
			if slot := sm.FreeCTASlot(); slot >= 0 {
				sm.LaunchCTA(slot, g.nextCTA)
				g.nextCTA++
				assignedAny = true
			}
		}
	}
}

// requestDispatch is invoked by an SM when one of its CTAs completes; the
// replacement CTA is assigned at the end of the current cycle
// (demand-driven distribution, Fig. 3).
func (g *GPU) requestDispatch(smID int) {
	g.dispatchReq = append(g.dispatchReq, smID)
}

// Stats exposes the run's counters, settling every SM's skipped window
// cycles first and merging the memory units' counters in, so callers
// always see complete totals. The memory units' counts reach the returned
// value only through this call: after more Steps, call it again. Safe to
// call mid-run between Steps, but not from another goroutine during one.
func (g *GPU) Stats() *stats.Sim {
	g.settle()
	g.st.AddFrom(g.memSt)
	return g.st
}

// settle applies every SM's skipped window cycles up to the current cycle
// (see SM.settle) and hands the sink what the SMs and partitions hold back
// from it (SM.flushRuns, Partition.Settle), so state and metrics read
// between Steps are complete.
func (g *GPU) settle() {
	for _, sm := range g.sms {
		sm.settle(g.cycle)
		sm.flushRuns()
	}
	for _, p := range g.parts {
		p.Settle(g.cycle)
	}
}

// skipping reports whether this Step may leave SMs inside their windows
// unticked: always, unless the sink cannot take bulk credits or the
// every-SM reference is selected (see fastforward.go).
func (g *GPU) skipping() bool { return !g.tickEvery && g.snk.Foldable() }

// Instructions returns the number of warp instructions issued so far.
// Skipped window cycles issue nothing, so it needs no settle.
func (g *GPU) Instructions() int64 { return g.st.Instructions }

// Cycle returns the current simulated cycle.
func (g *GPU) Cycle() int64 { return g.cycle }

// SMs exposes the cores (tests and analyses).
func (g *GPU) SMs() []*SM { return g.sms }

// Partitions exposes the memory partitions (determinism harness, tests).
func (g *GPU) Partitions() []*mem.Partition { return g.parts }

// Step advances the whole machine one core cycle: the memory phase, then
// the SM phase. It is the serial reference: the determinism harness,
// bisection and every observed run step through it, and an overlapped Run
// (see overlap.go) reproduces it exactly. The returned error is the first
// invariant violation any component detected this cycle (see
// internal/invariant); a violating run's statistics are meaningless, so
// Run aborts on it.
//
// When a host profiler is attached, sampled steps bill their wall-clock
// to the hostprof phases at the boundaries marked below: the injection
// check to PhaseOther, the memory phase to PhaseMem, the SM ticks to
// PhaseSM, and the commit tail — CTA dispatch and cycle bookkeeping — to
// PhaseCommit.
// A step that errors out abandons its sample (only EndStep completes one),
// keeping error paths free of accounting branches.
func (g *GPU) Step() error {
	sampled := g.hprof.BeginStep()
	if g.injectAt > 0 && g.cycle >= g.injectAt {
		g.injectAt = 0
		return invariant.Errorf("inject", g.cycle, "synthetic violation (WithInjectViolation)")
	}
	if sampled {
		g.hprof.MarkPhase(hostprof.PhaseOther)
	}
	now := g.cycle
	if err := g.memPhase(now); err != nil {
		return err
	}
	if sampled {
		g.hprof.MarkPhase(hostprof.PhaseMem)
	}
	if err := g.tickSerial(now); err != nil {
		return err
	}
	if sampled {
		g.hprof.MarkPhase(hostprof.PhaseSM)
	}
	g.dispatch(now)
	g.cycle++
	g.st.Cycles++
	if sampled {
		g.hprof.EndStep(hostprof.PhaseCommit)
	}
	return nil
}

// memPhase runs the memory domain's cycle now: the DRAM channels, which
// deliver their fills to the partitions, then the L2 partitions. The
// memory units tick only when due (DESIGN §14): a skipped tick is
// provably a no-op, and under the sanitizer each skip is audited.
func (g *GPU) memPhase(now int64) error {
	for _, ch := range g.drams {
		if !ch.Due(now) {
			continue
		}
		for _, r := range ch.Tick(now) {
			if err := g.parts[r.Partition].DeliverFromDRAM(now, r); err != nil {
				return err
			}
		}
		if err := ch.SanitizerErr(); err != nil {
			return err
		}
	}
	every, audit := g.tickEveryPart, g.cfg.CheckInvariants
	for _, p := range g.parts {
		var err error
		if every || p.Due(now) {
			err = p.Tick(now)
		} else if audit {
			err = p.CheckSkip(now)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// dispatch launches replacement CTAs on the SMs whose CTAs completed this
// cycle (demand-driven dispatch).
func (g *GPU) dispatch(now int64) {
	for _, smID := range g.dispatchReq {
		if g.nextCTA >= g.kernel.NumCTAs() {
			break
		}
		sm := g.sms[smID]
		if slot := sm.FreeCTASlot(); slot >= 0 {
			sm.settle(now + 1) // the launch wakes the SM: close its window at this cycle
			sm.LaunchCTA(slot, g.nextCTA)
			g.nextCTA++
		}
	}
	g.dispatchReq = g.dispatchReq[:0]
}

// tickSerial runs the SM phase in SM order, leaving SMs inside their
// windows unticked when skipping allows. On sampled steps each tick's
// duration feeds the host profiler's SM-tick ledger and per-SM EWMAs.
func (g *GPU) tickSerial(now int64) error {
	timed := g.hprof.Sampling()
	skip := g.skipping()
	for _, sm := range g.sms {
		if skip && sm.asleep(now) {
			continue
		}
		var t0 int64
		if timed {
			t0 = g.hprof.Clock()
		}
		err := sm.Tick(now)
		if timed {
			g.hprof.SMTick(sm.id, g.hprof.Clock()-t0)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Done reports whether the workload has fully drained. The SMs answer
// first; only once they are idle does an overlapped run let the memory
// domain catch up (domain.sync) to read the interconnect and memory units.
func (g *GPU) Done() bool {
	if g.nextCTA < g.kernel.NumCTAs() {
		return false
	}
	for _, sm := range g.sms {
		if sm.Busy() {
			return false
		}
	}
	g.dom.sync(g.cycle)
	return g.icnt.Idle() && g.allPartsIdle()
}

func (g *GPU) allPartsIdle() bool {
	for _, p := range g.parts {
		if !p.Idle() {
			return false
		}
	}
	for _, d := range g.drams {
		if !d.Idle() {
			return false
		}
	}
	return true
}

// RequestStop asks Run to return ErrInterrupted at the next beat. Safe to
// call from another goroutine (signal handlers); partial statistics remain
// valid.
func (g *GPU) RequestStop() { g.stopReq.Store(true) }

// RequestDump asks Run to write a flight dump at the next beat without
// stopping (SIGQUIT semantics). Safe to call from another goroutine.
func (g *GPU) RequestDump() { g.dumpReq.Store(true) }

// Close settles every SM (see settle) and finalizes the host profiler
// (wall-clock span plus the schedulers' stall-replay cost). It returns a
// breach the sanitizer found while settling (settledErr), which no later
// Step reports. It is idempotent. Run closes itself; Close matters for
// GPUs built with WithHostProf or a sink and stepped manually (the
// determinism harness, lockstep bisection).
func (g *GPU) Close() error {
	g.settle() // the skip ledger and the sink count every settled cycle
	if g.hprof != nil && !g.hprofDone {
		g.hprofDone = true
		g.hprof.Finish()
		for _, sm := range g.sms {
			if sc, ok := sm.stallSR.(sched.StallCoster); ok {
				c := sc.StallCost()
				g.hprof.AddReplayCost(c.Flushes, c.Picks)
			}
		}
	}
	return g.settledErr()
}

// Run executes until the workload drains or a cap is reached. It returns
// the collected statistics; an error signals an invariant violation, a
// hang (forward-progress watchdog) or an interrupt (ErrInterrupted). When
// a flight recorder is attached, violations, hangs, panics and dump
// requests each produce a black box through WithOnDump. An unobserved run
// may tick its memory domain on a second goroutine (see overlap.go); its
// results are those of stepping through Step.
func (g *GPU) Run() (*stats.Sim, error) {
	defer g.Close()
	g.hprof.Start()
	if g.flight != nil {
		defer func() {
			if r := recover(); r != nil {
				// The machine state that caused the panic may break the
				// snapshot too; a failing dump must not mask the original
				// panic, so it gets its own recover.
				func() {
					defer func() { _ = recover() }()
					g.emitDump(flight.ReasonPanic, fmt.Sprintf("panic at cycle %d: %v", g.cycle, r))
				}()
				panic(r)
			}
		}()
	}
	busy.Add(1)
	defer busy.Add(-1)
	if g.overlap() {
		defer func() { _ = g.endOverlap() }() // a panicking SM domain still stops the memory goroutine
	}
	reason, err := g.loop()
	if merr := g.endOverlap(); merr != nil {
		reason, err = flight.ReasonViolation, merr
	}
	if err == nil {
		reason, err = flight.ReasonViolation, g.finalAccounting()
	}
	if err != nil && reason != "" {
		g.emitDump(reason, err.Error())
	}
	return g.Stats(), err
}

// loop is Run's cycle loop: step until the workload drains or a cap is
// reached (a nil error), or until a step fails, a stop is requested or
// the watchdog trips, with the dump reason for the error (none for an
// interrupt). An overlapped run steps its SM domain (domain.Step) and
// falls back to Step once the process has no spare processor for its
// memory domain.
func (g *GPU) loop() (flight.Reason, error) {
	lastInsts := int64(-1)
	lastProgress := int64(0)
	for !g.Done() {
		if g.cfg.MaxInsts > 0 && g.st.Instructions >= g.cfg.MaxInsts {
			break
		}
		if g.cfg.MaxCycle > 0 && g.cycle >= g.cfg.MaxCycle {
			break
		}
		var err error
		if g.dom == nil {
			err = g.Step()
		} else if g.cycle&(overlapCheckEvery-1) == 0 && !spareCPU() {
			if err = g.endOverlap(); err == nil {
				err = g.Step()
			}
		} else {
			err = g.dom.Step()
		}
		if err != nil {
			return flight.ReasonViolation, err
		}
		// The beat: liveness Progress event plus the cross-goroutine
		// stop/dump request polls (one mask test per cycle otherwise).
		if g.cycle&g.beatMask == 0 {
			if g.snk != nil {
				g.snk.Progress(g.cycle, g.st.Instructions)
				g.sampleQueues()
			}
			if g.stopReq.Load() {
				return "", ErrInterrupted
			}
			if g.dumpReq.Swap(false) {
				g.emitDump(flight.ReasonSignal, "dump requested")
			}
		}
		if g.st.Instructions != lastInsts {
			lastInsts = g.st.Instructions
			lastProgress = g.cycle
		} else if g.watchdog > 0 && g.cycle-lastProgress > g.watchdog {
			return flight.ReasonWatchdog, fmt.Errorf("sim: no forward progress for %d cycles at cycle %d (%s)",
				g.watchdog, g.cycle, g.kernel.Abbr)
		}
	}
	return "", nil
}

// sampleQueues emits one EvQueueSample per memory-system queue: L1 MSHR
// occupancy and pending interconnect responses per SM, L2 MSHR occupancy
// and pending interconnect requests per partition, and the command-queue
// depth per DRAM channel. Run calls it on the progress beat, so occupancy
// percentiles are comparable across executor configurations.
func (g *GPU) sampleQueues() {
	for i, sm := range g.sms {
		g.snk.QueueSample(g.cycle, obs.DomSM, i, obs.QueueL1MSHR, sm.L1().OutstandingMSHRs())
		g.snk.QueueSample(g.cycle, obs.DomSM, i, obs.QueueIcntToSM, g.icnt.PendingToSM(i))
	}
	for i, p := range g.parts {
		g.snk.QueueSample(g.cycle, obs.DomPart, i, obs.QueueL2MSHR, p.L2().OutstandingMSHRs())
		g.snk.QueueSample(g.cycle, obs.DomPart, i, obs.QueueIcntToPart, g.icnt.PendingToPartition(i))
	}
	for i, ch := range g.drams {
		g.snk.QueueSample(g.cycle, obs.DomDRAM, i, obs.QueueDRAM, ch.QueueLen())
	}
}

// finalAccounting collects end-of-run statistics (never-used prefetched
// lines still resident in the L1s), settles the machine and closes out the
// observability sink. It returns settledErr.
func (g *GPU) finalAccounting() error {
	for _, sm := range g.sms {
		g.st.PrefUnusedAtEnd += sm.L1().UnusedPrefetchedLines()
	}
	g.settle()
	g.snk.RunDone(g.cycle)
	return g.settledErr()
}

// settledErr returns a breach the sanitizer latched while settling SM
// windows or L2 quiet spans (SM.auditSettle, Partition.Settle); the last
// spans of a run are settled by no Step, so only Close and Run report them.
func (g *GPU) settledErr() error {
	for _, sm := range g.sms {
		if sm.settleErr != nil {
			return sm.settleErr
		}
	}
	for _, p := range g.parts {
		if err := p.L2().SanitizerErr(); err != nil {
			return err
		}
	}
	return nil
}
