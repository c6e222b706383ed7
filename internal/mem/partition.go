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
	inbox   *fifo // ic's request queue toward this partition

	// wakeAt is the earliest cycle at which the partition's held work
	// needs a Tick: the earliest hitPipe readyAt (congestion retries
	// included), or the next cycle while the retry queue needs a real
	// walk (see retryQuiet). Tick sets it, queueHit and DeliverFromDRAM
	// lower it, and Due adds the two wake sources other units control: a
	// ready inbox head, and a miss queue or store FIFO the DRAM channel
	// has room for. Derived state, excluded from determinism hashes.
	wakeAt int64

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
	// determinism hashes.
	retryStalled bool
	fillLines    []uint64

	// A quiet retry queue (see retryQuiet) replays one proven fail per
	// retry on every cycle, ticked or slept, and touches nothing but the
	// sink's reservation-fail counters, so the partition owes the sink a
	// count instead of a walk: the L2 slice holds it (Cache.HoldResFails)
	// until Settle. quietFrom is the first quiet cycle not yet counted
	// (maxCycle while the queue is not quiet). Derived state, excluded
	// from determinism hashes.
	quietFrom int64
}

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
		inbox:          ic.toPart[id],
		acceptPerCycle: g.ICNTWidth,
		quietFrom:      maxCycle,
	}
}

// L2 exposes the slice's cache for tests and end-of-run accounting.
func (p *Partition) L2() *Cache { return p.l2 }

// AttachObs connects the partition's L2 slice to an observability sink; its
// events land on the partition's DomPart track.
func (p *Partition) AttachObs(s *obs.Sink) {
	p.l2.AttachObs(s, obs.DomPart, p.ID)
}

// Due reports whether a Tick at now can change the partition's state: its
// wake cycle has come, a request in its inbox has served the interconnect
// latency, or its miss queue or store FIFO holds work the DRAM channel
// has room for. On any other cycle Tick is a no-op and the GPU skips it.
func (p *Partition) Due(now int64) bool {
	return now >= p.wakeAt || now >= p.inbox.headAt ||
		(p.l2.MissQueueLen() > 0 || p.storeHead < len(p.stores)) && !p.dram.Full()
}

// CheckSkip audits a tick the GPU skipped because Due reported nothing
// due at now, under the L2 slice's sanitizer label. Due reads the inbox
// and the DRAM channel directly; the rest of the quiet predicate rests
// on wakeAt, so the audit rechecks it from the queues: no hit response
// ready and no retry needing a walk. A breach means a stale wake cycle.
func (p *Partition) CheckSkip(now int64) error {
	comp := p.l2.Label()
	for _, h := range p.hitPipe {
		if h.readyAt <= now {
			return invariant.Errorf(comp, now, "tick skipped with the hit response for line %#x ready since %d (wake cycle %d)",
				h.req.LineAddr, h.readyAt, p.wakeAt)
		}
	}
	if len(p.retryQ) > 0 && !p.retryQuiet() {
		return invariant.Errorf(comp, now, "tick skipped with %d queued retries that need a walk (wake cycle %d)", len(p.retryQ), p.wakeAt)
	}
	return nil
}

// retryQuiet reports whether replaying the retry queue only counts fails:
// the stalled-retry verdict holds, no fill or open reservation voids it,
// and nothing receives EvResFail events, so every replay is one proven
// fail the partition may count in bulk (see quietFrom) without a tick.
func (p *Partition) retryQuiet() bool {
	return p.retryStalled && !p.l2.sink.Live(obs.EvResFail) && len(p.fillLines) == 0 &&
		!(p.l2.MSHRsFree() > 0 && !p.l2.MissQueueFull())
}

// settleQuiet counts the proven fails of the quiet cycles from quietFrom
// up to, not including, upTo: one per queued retry and cycle, labelled as
// replayStalled labels them. Only Tick and DeliverFromDRAM change the
// queue, the MSHR file or the miss queue, and both settle first, so the
// state read here held through every cycle of the span. Under the
// sanitizer the span's premise is audited first (auditQuiet).
func (p *Partition) settleQuiet(upTo int64) {
	// The check inlines into every Tick; the span's work does not.
	if p.quietFrom < upTo {
		p.settleSpan(upTo)
	}
}

// settleSpan is settleQuiet's work for the quiet cycles before upTo.
func (p *Partition) settleSpan(upTo int64) {
	if p.l2.sanitize && p.l2.violation == nil {
		p.l2.violation = p.auditQuiet(upTo - 1)
	}
	p.countQuiet(upTo - p.quietFrom)
	p.quietFrom = upTo
}

// countQuiet counts the fails of n quiet cycles.
func (p *Partition) countQuiet(n int64) {
	p.l2.HoldResFails(p.l2.MSHRsFree() > 0, n*int64(len(p.retryQ)))
}

// auditQuiet checks that the quiet premise settleQuiet relies on held
// through cycle last: a non-empty queue under a quiet verdict, and every
// retried line still neither cached nor in flight, so each replay would
// indeed have failed. A breach means a stale verdict.
func (p *Partition) auditQuiet(last int64) error {
	if len(p.retryQ) == 0 || !p.retryQuiet() || !p.retriesStalled() {
		return invariant.Errorf(p.l2.Label(), last, "quiet retry cycles settled over %d retries the verdict does not cover", len(p.retryQ))
	}
	return nil
}

// Settle counts the quiet cycles before now and reports every fail the L2
// slice holds to the sink (Cache.FlushResFails). GPU.settle calls it
// before anything reads the sink; a breach the sanitizer found while
// settling is latched on the L2 slice (SanitizerErr).
func (p *Partition) Settle(now int64) {
	p.settleQuiet(now)
	p.l2.FlushResFails()
}

// Tick advances the partition one cycle. DRAM channels are ticked
// separately (they are shared between partitions); completed DRAM reads are
// delivered to the owning partition via DeliverFromDRAM. The returned error
// is the first invariant violation detected by the sanitizer (nil when
// checking is disabled or the partition is healthy).
func (p *Partition) Tick(now int64) error {
	// Count the quiet cycles the GPU skipped since the last tick.
	p.settleQuiet(now)
	// Send matured L2 hits back through the interconnect; the rest set the
	// wake cycle, which hits queued later in this tick can only lower.
	out := p.hitPipe[:0]
	p.wakeAt = maxCycle
	for _, h := range p.hitPipe {
		if h.readyAt <= now && p.ic.PushToSM(now, h.req) {
			continue
		}
		if h.readyAt <= now {
			h.readyAt = now + 1 // network congested; retry next cycle
		}
		p.wakeAt = min(p.wakeAt, h.readyAt)
		out = append(out, h)
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
		// With no fill to look at and no reservation open, every demand
		// replay is a proven reservation fail. Unless something receives
		// EvResFail events, its only effect is one counter per retry, so
		// count them instead of walking the queue.
		if p.retryQuiet() {
			p.countQuiet(1)
		} else {
			p.replayStalled(now)
		}
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
		r := p.inbox.pop(now)
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
	if !p.retryStalled && len(p.retryQ) > 0 {
		p.retryStalled = p.retriesStalled()
	}
	// A quiet queue needs no tick: its next cycles are counted from
	// quietFrom when the partition next settles.
	p.quietFrom = maxCycle
	if len(p.retryQ) > 0 {
		if p.retryQuiet() {
			p.quietFrom = now + 1
		} else {
			p.wakeAt = now + 1
		}
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
		p.queueHit(now, r)
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
	// The fill ends a quiet span: count it under the state it held.
	p.settleQuiet(now)
	// The fill frees an MSHR and installs a line: a queued retry may now
	// hit, merge or allocate. Its effect is precisely known, so instead of
	// voiding the stalled-retry verdict (and replaying the whole queue for
	// real), record the filled line for the targeted walk in
	// replayStalled.
	if p.retryStalled {
		p.fillLines = append(p.fillLines, r.LineAddr)
	}
	// The freed MSHR may open a reservation for the queued retries.
	if len(p.retryQ) > 0 {
		p.wakeAt = min(p.wakeAt, now)
	}
	fill, err := p.l2.Fill(now, r.LineAddr)
	if err != nil {
		return err
	}
	for _, w := range fill.Waiters {
		p.queueHit(now, w)
	}
	return nil
}

// queueHit sends r back toward its SM once the L2 hit latency has passed.
func (p *Partition) queueHit(now int64, r *Request) {
	ready := now + int64(p.l2.cfg.HitLatency)
	p.hitPipe = append(p.hitPipe, timedResp{readyAt: ready, req: r}) //caps:alloc-ok capacity converges to the peak in-flight hit responses
	p.wakeAt = min(p.wakeAt, ready)
}

// Idle reports whether the partition holds no pending work.
func (p *Partition) Idle() bool {
	return len(p.hitPipe) == 0 && len(p.retryQ) == 0 && p.storeHead == len(p.stores) &&
		p.l2.MissQueueLen() == 0 && p.l2.OutstandingMSHRs() == 0
}
