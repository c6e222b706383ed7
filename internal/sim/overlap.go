package sim

import (
	"errors"
	"runtime"
	"sync/atomic"

	"caps/internal/mem"
)

// Overlapped execution. A cycle is a memory phase (memPhase: the DRAM
// channels, which deliver their fills, then the L2 partitions) and an SM
// phase (tickSerial, CTA dispatch, cycle close). The two domains exchange
// nothing but interconnect packets, and a packet takes ICNTLatency cycles
// to arrive: a conservative lookahead in ZSim's sense (Sanchez and
// Kozyrakis, ISCA 2013). So an unobserved Run ticks the memory domain on
// one extra goroutine, a bounded distance behind the SMs, and the two meet
// only at the interconnect's queues and at two published cycle counters:
// smAt, the last cycle the SM domain started, and memDone, the number of
// cycles the memory domain completed.
//
// The band rule keeps every output byte-identical to Step:
//
//   - The memory domain runs cycle m only once smAt >= m. It never
//     simulates a cycle the serial run would not, so caps, Done, stop
//     requests and the watchdog land exactly.
//   - The SM domain runs cycle s only once memDone > s-ICNTLatency. Every
//     response deliverable at s was pushed by then.
//   - Done, a stop, the watchdog and the end of the run first let the
//     memory domain reach the SMs' last started cycle (domain.sync,
//     endOverlap), then read both domains.
//
// Inside the band each queue push reproduces the serial decision
// (mem.Interconnect.Share): in the serial order an SM push at s sees the
// partitions' pops through s, and a partition push at m sees the SMs' pops
// through m-1. A push fails exactly when the packet whose slot it reuses
// had not left by that cut. The published pop counts, a response queue's
// pop stamps and the packet's ready cycle decide it; only an SM push onto
// a ready request whose pop is not yet published waits for the memory
// domain to complete s. The memory units count into GPU.memSt, and the
// memory domain never writes a Request, which changes hands only through
// a queue.
//
// Overlap is derived, not configured. Run overlaps only a run nothing
// observes (no sink, host profiler, flight recorder, sanitizer, injected
// violation or serial test reference), with ICNTLatency at least
// overlapMinLatency, and only while the process has a spare processor:
// busy counts one goroutine per Run in progress plus one per overlapped
// memory domain, and may not exceed GOMAXPROCS. An overlapped run that
// finds the process oversubscribed (capsweep -par, the suite) ends its
// overlap and finishes on Step. A violation is reported as the serial run
// reports it: the memory domain never runs past the SMs' last started
// cycle, so its violation always comes first in the serial order; the
// statistics of a violating run are meaningless either way.

// overlapMinLatency is the smallest ICNTLatency Run overlaps at. A shorter
// band makes the SM domain wait on the memory domain every few cycles.
const overlapMinLatency = 16

// publishEvery is how often, in cycles, each domain publishes its clock
// and its queue counts (a power of two), at most: a band shorter than
// 4*publishEvery publishes every quarter band, rounded down to a power of
// two, so neither domain waits on the other's publishing. A domain also
// publishes before it waits. Publishing every cycle would bounce the
// published cache lines between the two processors on every cycle.
const publishEvery = 32

// overlapCheckEvery is how often, in cycles, an overlapped run checks that
// its memory domain still has a processor of its own (a power of two).
const overlapCheckEvery = 1024

// memFailed is the clock a memory domain publishes when it stops on a
// violation or a panic: no SM-side wait blocks on it any more.
const memFailed = gateNever

// errMemoryStopped ends the SM domain's loop once the memory domain has
// stopped; endOverlap then reports the memory domain's own error.
var errMemoryStopped = errors.New("sim: memory domain stopped")

// busy counts the goroutines this process's runs keep busy: one per Run in
// progress and one per memory domain overlapped beside its SMs.
var busy atomic.Int32

// spareCPU reports whether the process's runs fit its processors.
func spareCPU() bool { return int(busy.Load()) <= runtime.GOMAXPROCS(0) }

// domain is the memory domain's goroutine. Its meeting points with the SM
// domain, which runs on Run's goroutine, are the interconnect's queues and
// clocks (mem.Interconnect.Share).
type domain struct {
	g       *GPU
	ic      *mem.Interconnect
	lat     int64
	pubMask int64 // the publishing period minus one (see publishEvery)

	started int64 // the SM domain's last started cycle
	seen    int64 // the SM domain's last read of the memory clock

	stop   atomic.Bool
	exited chan struct{}
	// err and panicked are the memory domain's violation and panic value;
	// endOverlap reads them after exited closes.
	err      error
	panicked any
}

// overlap starts the memory domain's goroutine when the run may overlap
// (see above) and reports whether it did.
func (g *GPU) overlap() bool {
	if g.serial || g.snk != nil || g.hprof != nil || g.flight != nil || g.injectAt > 0 ||
		g.cfg.CheckInvariants || int64(g.cfg.ICNTLatency) < overlapMinLatency {
		return false
	}
	if busy.Add(1); !spareCPU() {
		busy.Add(-1)
		return false
	}
	d := &domain{g: g, ic: g.icnt, lat: int64(g.cfg.ICNTLatency),
		started: g.cycle - 1, seen: g.cycle, exited: make(chan struct{})}
	period := int64(publishEvery)
	for period > 1 && 4*period > d.lat {
		period /= 2
	}
	d.pubMask = period - 1
	d.ic.Share()
	d.ic.PublishSM(d.started)
	d.ic.PublishMem(g.cycle)
	g.dom, g.overlapped = d, true
	go d.run(g.cycle)
	return true
}

// Overlapped reports whether Run ticked the memory domain on a goroutine
// of its own for some part of the run.
func (g *GPU) Overlapped() bool { return g.overlapped }

// endOverlap lets the memory domain reach the SMs' last started cycle,
// stops its goroutine and returns the interconnect to one goroutine; the
// GPU is serial from here on. It returns the memory domain's violation and
// re-raises its panic. It is a no-op on a serial GPU.
func (g *GPU) endOverlap() error {
	d := g.dom
	if d == nil {
		return nil
	}
	g.dom = nil
	d.wait(d.started + 1)
	d.stop.Store(true)
	<-d.exited
	d.ic.Unshare()
	busy.Add(-1)
	if d.panicked != nil {
		panic(d.panicked)
	}
	return d.err
}

// run is the memory domain's loop, from cycle m on. It publishes on the
// publishing period and whenever it catches up with the SMs' published
// clock. Its waits never park: it waits on the SMs at nearly every
// publishing period of an SM-heavy kernel, and a park's occasional
// millisecond let the SMs run into the band and wait in turn.
func (d *domain) run(m int64) {
	defer close(d.exited)
	defer func() {
		if r := recover(); r != nil {
			d.panicked = r
			d.ic.PublishMem(memFailed)
		}
	}()
	started := m - 1
	for ; ; m++ {
		if started < m {
			d.ic.PublishMem(m)
			for round := 0; ; round++ {
				if started = d.ic.SMStarted(); started >= m {
					break
				}
				if d.stop.Load() {
					return
				}
				mem.Backoff(round, false)
			}
		}
		d.ic.PollMem(m)
		if err := d.g.memPhase(m); err != nil {
			d.err = err
			d.ic.PublishMem(memFailed)
			return
		}
		if (m+1)&d.pubMask == 0 {
			d.ic.PublishMem(m + 1)
		}
	}
}

// Step runs the SM domain's next cycle: once the memory domain has
// completed the cycle ICNTLatency before it, it does what GPU.Step does
// after its memory phase. It publishes on the publishing period and
// before it waits.
func (d *domain) Step() error {
	g := d.g
	now := g.cycle
	d.started = now
	if now&d.pubMask == 0 {
		d.ic.PublishSM(now)
	}
	if need := now - d.lat + 1; d.seen < need {
		if d.seen = d.wait(need); d.seen == memFailed {
			return errMemoryStopped
		}
	}
	d.ic.PollSM(now)
	if err := g.tickSerial(now); err != nil {
		return err
	}
	g.dispatch(now)
	g.cycle++
	g.st.Cycles++
	return nil
}

// wait publishes the SM domain's clock and returns the memory clock once
// the memory domain has completed n cycles or stopped.
func (d *domain) wait(n int64) int64 {
	if v := d.ic.MemDone(); v >= n {
		return v
	}
	d.ic.PublishSM(d.started)
	for round := 0; ; round++ {
		if v := d.ic.MemDone(); v >= n {
			return v
		}
		mem.Backoff(round, true)
	}
}

// sync lets the memory domain complete every cycle before now, so the
// caller may read its state; a no-op on a serial GPU (nil domain).
func (d *domain) sync(now int64) {
	if d != nil {
		d.wait(now)
	}
}
