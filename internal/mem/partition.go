package mem

import (
	"fmt"
	"math"

	"caps/internal/config"
	"caps/internal/invariant"
	"caps/internal/obs"
	"caps/internal/stats"
)

// Partition is one memory partition: an L2 slice backed by (a share of) a
// DRAM channel. Twelve partitions share six channels in the Table III
// configuration, so two partitions interleave onto each channel.

type timedResp struct {
	readyAt int64
	req     *Request
}

// queued is an accepted request waiting at the partition for a retry. seq
// orders it against every other request the partition has queued, by first
// arrival; a retry keeps its seq when it is re-queued.
type queued struct {
	seq uint64
	req *Request
}

// Partition couples an L2 slice with its DRAM channel.
type Partition struct {
	ID   int
	l2   *Cache
	dram *DRAMChannel
	st   *stats.Sim

	hitPipe []timedResp // L2 hits waiting out the L2 latency
	ic      *Interconnect

	// Accepted requests the partition cannot serve yet wait in two queues,
	// each ordered by seq: retryQ holds demand and prefetch requests that
	// failed L2 reservation, and stores (live from storeHead on) holds
	// writes the full DRAM queue turned away. Tick replays the two merged
	// in seq order, so every event and stat lands as it would from one
	// queue walked in arrival order.
	//
	// The store FIFO is replayed from its head only, and only until a push
	// fails. A queued store changes nothing unless its DRAM push succeeds,
	// and the DRAM queue drains only in DRAMChannel.Tick, which the GPU
	// runs before any partition ticks. So within a partition tick — and
	// across the partitions sharing the channel — a push that fails once
	// fails for the rest of the tick: stores leave strictly in order, up to
	// the first failure, and a non-empty FIFO implies a full channel.
	retryQ    []queued
	stores    []queued
	storeHead int
	seq       uint64

	// storeNext is the seq of the store FIFO head while a push may still
	// succeed this tick, and MaxUint64 once the FIFO is empty or the
	// channel has rejected a push: the walks compare it inline against
	// each demand retry's seq.
	storeNext uint64

	acceptPerCycle int

	// retryStalled caches the verdict that every queued demand retry is a
	// miss (line absent and not in flight) against a full L2 MSHR file or
	// a full miss queue, so replaying it is a guaranteed reservation fail:
	// Tick then emits the replay events without re-running the accesses.
	// Only two events can break the verdict — a DRAM fill (frees an MSHR,
	// installs a line) and a miss-queue drain (frees queue slots) — and
	// both have exactly known effects, so DeliverFromDRAM records filled
	// lines in fillLines, Tick notices its own drains, and the next replay
	// runs a targeted walk (replayStalled) instead of voiding: retries
	// touching a filled (or newly allocated) line, or arriving while a
	// reservation is open, replay for real; the rest are still proven
	// fails. The verdict says nothing about the store FIFO, whose replay
	// is already a single failed push per tick while the channel is full.
	// Demand retries appended while the verdict holds have just proven its
	// conditions, so they extend the window. Derived state, excluded from
	// determinism hashes. stallReplayOn arms the verdict; it stays off
	// unless the run opted into the idle-skip fast paths
	// (sim.WithIdleSkip), keeping the baseline configuration on the plain
	// per-cycle pipeline.
	retryStalled  bool
	stallReplayOn bool
	fillLines     []uint64
}

// EnableStallReplay arms the stalled-retry replay fast path (see the
// retryStalled field); the simulator calls it when the run was built with
// the idle-skip option. Results are bit-identical either way.
func (p *Partition) EnableStallReplay() { p.stallReplayOn = true }

// NewPartition builds one partition slice.
func NewPartition(id int, g config.GPUConfig, dram *DRAMChannel, ic *Interconnect, st *stats.Sim) *Partition {
	l2 := NewCacheLevel(g.L2, false)
	if g.CheckInvariants {
		l2.EnableSanitizer(fmt.Sprintf("L2[%d]", id))
	}
	return &Partition{
		ID:             id,
		l2:             l2,
		dram:           dram,
		st:             st,
		ic:             ic,
		acceptPerCycle: g.ICNTWidth,
	}
}

// L2 exposes the slice's cache for tests and end-of-run accounting.
func (p *Partition) L2() *Cache { return p.l2 }

// AttachObs connects the partition's L2 slice to an observability sink; its
// events land on the partition's DomPart track.
func (p *Partition) AttachObs(s *obs.Sink) {
	p.l2.AttachObs(s, obs.DomPart, p.ID)
}

// Tick advances the partition one cycle. DRAM channels are ticked
// separately (they are shared between partitions); completed DRAM reads are
// delivered to the owning partition via DeliverFromDRAM. The returned error
// is the first invariant violation detected by the sanitizer (nil when
// checking is disabled or the partition is healthy).
func (p *Partition) Tick(now int64) error {
	// Send matured L2 hits back through the interconnect.
	out := p.hitPipe[:0]
	for _, h := range p.hitPipe {
		if h.readyAt <= now {
			if !p.ic.PushToSM(now, h.req) {
				h.readyAt = now + 1 // network congested; retry next cycle
				out = append(out, h)
			}
		} else {
			out = append(out, h)
		}
	}
	p.hitPipe = out

	// Drain the L2 miss queue into DRAM.
	for {
		head := p.l2.PeekMiss()
		if head == nil || p.dram.Full() {
			break
		}
		p.l2.PopMiss()
		p.dram.Push(now, head)
	}
	// Open the store FIFO for this tick's replay (see storeNext).
	p.storeNext = math.MaxUint64
	if p.storeHead < len(p.stores) {
		p.storeNext = p.stores[p.storeHead].seq
	}

	// Replay accesses that previously failed, oldest first, then accept
	// new traffic from the interconnect.
	if p.retryStalled && len(p.retryQ) > 0 {
		quiet := len(p.fillLines) == 0 && !p.l2.HasObs() &&
			!(p.l2.MSHRsFree() > 0 && !p.l2.MissQueueFull())
		if !quiet {
			p.replayStalled(now)
		}
		// Otherwise every demand replay is a proven no-op: a reservation
		// fail whose only effect is an event on a sink that is not attached.
	} else {
		// A verdict over an empty queue is void; dropping it also stops
		// DeliverFromDRAM from growing fillLines while nothing walks them.
		p.retryStalled = false
		p.fillLines = p.fillLines[:0]
		retry := p.retryQ
		p.retryQ = p.retryQ[:0]
		for _, q := range retry {
			p.replayStores(now, q.seq)
			if !p.access(now, q.req) {
				p.retryQ = append(p.retryQ, q) //caps:alloc-ok in-place filter of the drained retry slice; never outgrows it
			}
		}
	}
	p.replayStores(now, math.MaxUint64)
	for i := 0; i < p.acceptPerCycle; i++ {
		r := p.ic.PopForPartition(now, p.ID)
		if r == nil {
			break
		}
		if r.Kind == Store {
			if !p.store(now, r) {
				p.queueStore(r)
			}
		} else if !p.access(now, r) {
			p.seq++
			p.retryQ = append(p.retryQ, queued{seq: p.seq, req: r}) //caps:alloc-ok capacity converges to the peak retry backlog
		}
	}
	if p.stallReplayOn && !p.retryStalled && len(p.retryQ) > 0 {
		p.retryStalled = p.retriesStalled()
	}
	if p.l2.sanitize {
		if err := p.checkQueues(now); err != nil {
			return err
		}
	}
	return p.l2.SanitizerErr()
}

// retriesStalled reports whether every queued demand retry is provably a
// reservation fail on replay: a full MSHR file (ResFailMSHR) or a full
// miss queue (ResFailQueue), and each retried line neither cached nor in
// flight (a hit or a merge would accept it). The conditions only change
// on a DRAM fill or a miss-queue drain, both of which the frozen walk
// observes.
func (p *Partition) retriesStalled() bool {
	if p.l2.MSHRsFree() > 0 && !p.l2.MissQueueFull() {
		return false
	}
	for _, q := range p.retryQ {
		if p.l2.Probe(q.req.LineAddr) || p.l2.InFlight(q.req.LineAddr) {
			return false
		}
	}
	return true
}

// replayStalled replays the demand retry queue under the stalled-retry
// verdict. Retries the verdict covers are proven reservation fails, so
// only their events are emitted — ResFailMSHR when the MSHR file is full
// (Access checks it before the miss queue), ResFailQueue otherwise. Two
// kinds of retry still take the real access path, in queue order so every
// side effect lands exactly as the plain replay would: retries touching a
// line this cycle's fills installed or the walk itself allocated (they
// may hit or merge), and retries arriving while a reservation (a free
// MSHR plus a miss-queue slot) is open after a fill or miss-queue drain.
// A real access that leaves its line in flight (a fresh allocation) joins
// fillLines so later same-line retries merge for real rather than being
// frozen incorrectly. Neither the free-MSHR count nor the miss-queue
// headroom ever grows during the walk, so a retry frozen here cannot have
// been affected by a later allocation: the later access would itself have
// needed an open reservation or an already-recorded line. Older stores
// are pushed ahead of each retry, as in the plain walk.
//
//caps:hotpath
func (p *Partition) replayStalled(now int64) {
	retry := p.retryQ
	p.retryQ = p.retryQ[:0]
	for _, q := range retry {
		p.replayStores(now, q.seq)
		line := q.req.LineAddr
		if (p.l2.MSHRsFree() > 0 && !p.l2.MissQueueFull()) || p.lineFilled(line) {
			if !p.access(now, q.req) {
				p.retryQ = append(p.retryQ, q) //caps:alloc-ok in-place filter of the drained retry slice; never outgrows it
			}
			if p.l2.InFlight(line) && !p.lineFilled(line) {
				p.fillLines = append(p.fillLines, line) //caps:alloc-ok capacity converges to the peak fills+allocations per cycle
			}
			continue
		}
		p.l2.ReplayResFail(now, line, p.l2.MSHRsFree() > 0)
		p.retryQ = append(p.retryQ, q) //caps:alloc-ok in-place filter of the drained retry slice; never outgrows it
	}
	p.fillLines = p.fillLines[:0]
	// A reservation left open means the remaining fails were transient or
	// the queue drained entirely; either way the verdict no longer
	// describes the queue, so fall back to the real replay path.
	if p.l2.MSHRsFree() > 0 && !p.l2.MissQueueFull() {
		p.retryStalled = false
	}
}

// lineFilled reports whether line was installed or allocated by this
// cycle's fills (see replayStalled). The list holds at most a few lines,
// so a linear scan beats a map.
func (p *Partition) lineFilled(line uint64) bool {
	for _, l := range p.fillLines {
		if l == line {
			return true
		}
	}
	return false
}

// replayStores pushes queued stores older than seq into the DRAM channel
// from the FIFO head, stopping at the first push the full channel rejects;
// every later push this tick would fail too (see Partition.stores), so
// after that the FIFO is skipped until the next tick. The walks call it
// before every demand retry, so the check stays small enough to inline.
func (p *Partition) replayStores(now int64, seq uint64) {
	if p.storeNext < seq {
		p.pushStores(now, seq)
	}
}

// pushStores is replayStores' loop, kept out of line.
func (p *Partition) pushStores(now int64, seq uint64) {
	for p.storeHead < len(p.stores) {
		q := p.stores[p.storeHead]
		if q.seq > seq {
			p.storeNext = q.seq
			return
		}
		if !p.store(now, q.req) {
			p.storeNext = math.MaxUint64
			return
		}
		p.storeHead++
	}
	p.stores, p.storeHead = p.stores[:0], 0
	p.storeNext = math.MaxUint64
}

// queueStore appends a store the full DRAM channel turned away to the FIFO
// tail, first reclaiming the consumed head once it is half the slice.
func (p *Partition) queueStore(r *Request) {
	if p.storeHead > 0 && 2*p.storeHead >= len(p.stores) {
		p.stores = p.stores[:copy(p.stores, p.stores[p.storeHead:])]
		p.storeHead = 0
	}
	p.seq++
	p.stores = append(p.stores, queued{seq: p.seq, req: r}) //caps:alloc-ok capacity converges to twice the peak store backlog
}

// store forwards a write to DRAM — write-through, no-allocate at L2
// granularity — and reports whether the channel accepted it.
func (p *Partition) store(now int64, r *Request) bool {
	if !p.dram.Push(now, r) {
		return false
	}
	p.st.L2Accesses++
	p.l2.sink.MemAccess(now, obs.DomPart, p.ID, r.WarpSlot, -1, r.PC, r.LineAddr, obs.AccessStore, false)
	return true
}

// access presents a demand or prefetch request to the L2 slice and reports
// whether the slice accepted it; on a reservation fail the caller queues
// it for retry.
func (p *Partition) access(now int64, r *Request) bool {
	p.st.L2Accesses++
	res := p.l2.Access(now, r)
	switch res.Outcome {
	case Hit:
		p.st.L2Hits++
		p.hitPipe = append(p.hitPipe, timedResp{readyAt: now + int64(p.l2.cfg.HitLatency), req: r}) //caps:alloc-ok capacity converges to the peak in-flight hit responses

	case MissNew, MissMerged:
		// MissNew sits in the L2 miss queue until DRAM accepts it;
		// MissMerged waits on the existing MSHR. Nothing more to do.
	case ResFailMSHR, ResFailQueue:
		p.st.UncountL2Replay() // not actually accepted; don't double count
		return false
	}
	return true
}

// checkQueues audits the queue discipline head-only store replay rests on
// (see Partition.stores), under the L2 slice's sanitizer switch and label:
// both queues strictly increasing in seq, stores only in the store FIFO,
// and a non-empty FIFO only against a full DRAM channel.
func (p *Partition) checkQueues(now int64) error {
	comp := p.l2.Label()
	last := uint64(0)
	for _, q := range p.retryQ {
		if q.req.Kind == Store {
			return invariant.Errorf(comp, now, "store for line %#x in the demand retry queue", q.req.LineAddr)
		}
		if q.seq <= last {
			return invariant.Errorf(comp, now, "retry queue out of order: seq %d after %d", q.seq, last)
		}
		last = q.seq
	}
	last = 0
	live := p.stores[p.storeHead:]
	for _, q := range live {
		if q.req.Kind != Store {
			return invariant.Errorf(comp, now, "%v request for line %#x in the store FIFO", q.req.Kind, q.req.LineAddr)
		}
		if q.seq <= last {
			return invariant.Errorf(comp, now, "store FIFO out of order: seq %d after %d", q.seq, last)
		}
		last = q.seq
	}
	if len(live) > 0 && !p.dram.Full() {
		return invariant.Errorf(comp, now, "%d queued stores against a DRAM queue with free slots", len(live))
	}
	return nil
}

// DeliverFromDRAM installs a line returning from DRAM and queues responses
// for every waiter. A fill without a matching L2 MSHR is a routing bug and
// is surfaced as an invariant violation.
func (p *Partition) DeliverFromDRAM(now int64, r *Request) error {
	// The fill frees an MSHR and installs a line: a queued retry may now
	// hit, merge or allocate. Its effect is precisely known, so instead of
	// voiding the stalled-retry verdict (and replaying the whole queue for
	// real), record the filled line for the targeted walk in
	// replayStalled.
	if p.retryStalled {
		p.fillLines = append(p.fillLines, r.LineAddr)
	}
	fill, err := p.l2.Fill(now, r.LineAddr)
	if err != nil {
		return err
	}
	for _, w := range fill.Waiters {
		p.hitPipe = append(p.hitPipe, timedResp{readyAt: now + int64(p.l2.cfg.HitLatency), req: w})
	}
	return nil
}

// Idle reports whether the partition holds no pending work.
func (p *Partition) Idle() bool {
	return len(p.hitPipe) == 0 && len(p.retryQ) == 0 && p.storeHead == len(p.stores) &&
		p.l2.MissQueueLen() == 0 && p.l2.OutstandingMSHRs() == 0
}
