package sim

import (
	"fmt"

	"caps/internal/hostprof"
)

// Parallel SM ticking. isolint proves SM.Tick writes only SM-owned state
// except at the annotated sync points (stats-reduce, icnt-queues,
// obs-metrics/-consumers/-trace, addrgen, cta-dispatch). The parallel Step
// makes every one of those either SM-private (per-SM stats shards) or
// staged (interconnect pushes, obs events, CTA-dispatch requests buffered
// into per-SM lanes), so workers can tick disjoint SM shards concurrently
// and a single-threaded commit phase replays the lanes in fixed SM order. The result is
// bit-identical to the serial tick at any worker count — same state
// hashes, same statistics, same event stream.

// smPool is the persistent worker pool behind WithWorkers(n > 1). Worker 0
// is the caller's own goroutine: tick() hands shards 1..n-1 to the pool
// goroutines, ticks shard 0 inline, then waits on the barrier. Blocking
// channels (not spin loops) carry the hand-off, so an oversubscribed or
// single-CPU host schedules the pool fairly.
type smPool struct {
	shards [][]*SM      // disjoint contiguous SM blocks, one per worker
	start  []chan int64 // per-goroutine cycle hand-off (workers 1..n-1)
	done   chan struct{}

	// Per-SM outcome slots, written by exactly one worker each cycle and
	// read by the commit phase after the barrier.
	issued []int
	errs   []error
	panics []any

	// hp is the run's host profiler (nil when absent). On sampled steps
	// each worker times its own ticks: Sampling() is set before the cycle
	// hand-off (the channel send orders the write), every busy-time slot
	// is written only by its own worker, and every per-SM EWMA only by the
	// worker owning that shard, so the pool needs no extra synchronization.
	hp *hostprof.Profiler

	// skip lets workers leave SMs inside their windows unticked this
	// cycle (GPU.skipping); set before the hand-off, which orders it.
	skip bool

	stopped bool
}

func newSMPool(sms []*SM, workers int, hp *hostprof.Profiler) *smPool {
	p := &smPool{
		shards: make([][]*SM, workers),
		start:  make([]chan int64, workers-1),
		done:   make(chan struct{}, workers-1),
		issued: make([]int, len(sms)),
		errs:   make([]error, len(sms)),
		panics: make([]any, len(sms)),
		hp:     hp,
	}
	base, rem := len(sms)/workers, len(sms)%workers
	idx := 0
	for w := 0; w < workers; w++ {
		n := base
		if w < rem {
			n++
		}
		p.shards[w] = sms[idx : idx+n]
		idx += n
	}
	for w := range p.start {
		p.start[w] = make(chan int64)
		go p.worker(w)
	}
	return p
}

// worker ticks one shard per received cycle until its channel closes.
func (p *smPool) worker(w int) {
	for now := range p.start[w] {
		for _, sm := range p.shards[w+1] {
			p.tickOne(sm, w+1, now)
		}
		p.done <- struct{}{}
	}
}

// tickOne runs one SM tick, capturing its result — and any panic — into
// the SM's slot so the commit phase can surface them deterministically.
// On sampled steps the tick is timed into worker w's busy slot and the
// SM's duration EWMA.
func (p *smPool) tickOne(sm *SM, w int, now int64) {
	if p.skip && sm.asleep(now) {
		p.issued[sm.id] = 0
		return
	}
	defer func() {
		if r := recover(); r != nil {
			p.panics[sm.id] = r
		}
	}()
	if p.hp.Sampling() {
		t0 := p.hp.Clock()
		p.issued[sm.id], p.errs[sm.id] = sm.Tick(now)
		p.hp.SMTick(sm.id, w, p.hp.Clock()-t0)
		return
	}
	p.issued[sm.id], p.errs[sm.id] = sm.Tick(now)
}

// tick runs one parallel SM phase: fan out, tick shard 0 inline, barrier.
func (p *smPool) tick(now int64, skip bool) {
	p.skip = skip
	for _, ch := range p.start {
		ch <- now
	}
	for _, sm := range p.shards[0] {
		p.tickOne(sm, 0, now)
	}
	for range p.start {
		<-p.done
	}
}

// stop closes the hand-off channels, terminating the pool goroutines.
func (p *smPool) stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	for _, ch := range p.start {
		close(ch)
	}
}

// stepSMs is the parallel SM phase of Step: congestion precheck, staged
// parallel ticks, then the single-threaded commit in fixed SM order.
func (g *GPU) stepSMs(now int64) error {
	// The one cross-SM interaction staging cannot reorder safely is
	// interconnect backpressure: if this cycle's pushes could overflow a
	// partition queue, which SM's request bounces depends on SM order.
	// The precheck bounds each SM's possible pushes (buffered stores +
	// queued misses + at most one new miss from the LSU head); when every
	// partition has room for the worst case, staged parallel ticking is
	// push-for-push identical to serial, otherwise this cycle falls back
	// to the serial tick. The fallback decision is a pure function of
	// machine state, so it is identical at any worker count.
	if !g.icntPrecheck() {
		if err := g.tickSerial(now); err != nil {
			return err
		}
		if g.hprof.Sampling() {
			g.hprof.MarkPhase(hostprof.PhaseSM)
		}
		return nil
	}

	if g.pool == nil {
		g.pool = newSMPool(g.sms, g.workers, g.hprof)
	}
	g.snk.StageBegin()
	for _, sm := range g.sms {
		sm.staged = true
	}
	g.pool.tick(now, g.skipping())
	for _, sm := range g.sms {
		sm.staged = false
	}
	g.snk.StageEnd()
	if g.hprof.Sampling() {
		g.hprof.MarkPhase(hostprof.PhaseSM)
	}

	// Commit phase, all on this goroutine, in fixed SM order. A panic in
	// any worker re-panics here first (lowest SM id wins) so Run's
	// flight-dump recover sees it exactly as it would a serial panic.
	for _, sm := range g.sms {
		if r := g.pool.panics[sm.id]; r != nil {
			g.pool.panics[sm.id] = nil
			panic(r)
		}
	}
	var firstErr error
	for _, sm := range g.sms {
		g.snk.StageReplay(sm.id)
		for _, r := range sm.icLane {
			if !g.icnt.PushToPartition(now, r) {
				// Unreachable: the precheck reserved room for every
				// staged push. A failure here is a simulator bug.
				panic(fmt.Sprintf("sim: staged push failed after precheck (cycle %d, sm %d, partition %d, line %#x)",
					now, sm.id, r.Partition, r.LineAddr))
			}
		}
		sm.icLane = sm.icLane[:0]
		g.insts += int64(g.pool.issued[sm.id])
		for n := sm.stagedDispatch; n > 0; n-- {
			g.requestDispatch(sm.id)
		}
		sm.stagedDispatch = 0
		if err := g.pool.errs[sm.id]; err != nil && firstErr == nil {
			firstErr = err
		}
		g.pool.errs[sm.id] = nil
	}
	return firstErr
}

// icntPrecheck reports whether every partition queue can absorb the worst
// case this cycle's SM ticks could push: every buffered store, every
// queued L1 miss, plus one new miss from the LSU head access (pumpLSU's
// miss is drained by drainMisses in the same tick).
func (g *GPU) icntPrecheck() bool {
	d := g.partDemand
	for i := range d {
		d[i] = 0
	}
	for _, sm := range g.sms {
		sm.addIcntDemand(d)
	}
	for p, need := range d {
		if need > g.icnt.FreeToPartition(p) {
			return false
		}
	}
	return true
}
