package mem

// refPartition is the L2 partition as it stood before its store backlog
// became a FIFO: one merged retry queue, re-walked every tick, with stores
// re-pushed at a full DRAM channel. It is kept verbatim (renamed) as the
// reference TestPartitionMatchesReference drives Partition against.

import (
	"fmt"

	"caps/internal/config"
	"caps/internal/obs"
	"caps/internal/stats"
)

// refPartition couples an L2 slice with its DRAM channel.
type refPartition struct {
	ID   int
	l2   *Cache
	dram *DRAMChannel
	st   *stats.Sim

	hitPipe []timedResp // L2 hits waiting out the L2 latency
	retryQ  []*Request  // accepted requests that failed L2 reservation
	ic      *Interconnect

	acceptPerCycle int

	// retryStalled caches the verdict that every queued retry is a demand
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
	// fails. Stores — which wait on the DRAM channel, not the MSHR file —
	// are exempt from the verdict and always replay for real. Demand
	// retries appended while the verdict holds have just proven its
	// conditions, so they extend the window. Derived state, excluded from
	// determinism hashes. stallReplayOn arms the verdict; off, the
	// reference replays every retry for real each tick, the plain
	// per-cycle walk Partition (always armed) is also held to.
	retryStalled  bool
	stallReplayOn bool
	fillLines     []uint64

	// storeRetries counts the Store entries in retryQ. When it is zero, no
	// fills are pending, reservations are closed and no sink is attached,
	// a frozen replay cycle has no effect at all (its events land in a nil
	// sink) and Tick skips the walk outright.
	storeRetries int
}

// EnableStallReplay arms the reference's stalled-retry replay fast path
// (see the retryStalled field). Results are bit-identical either way.
func (p *refPartition) EnableStallReplay() { p.stallReplayOn = true }

// newRefPartition builds one partition slice.
func newRefPartition(id int, g config.GPUConfig, dram *DRAMChannel, ic *Interconnect, st *stats.Sim) *refPartition {
	l2 := NewCacheLevel(g.L2, false)
	if g.CheckInvariants {
		l2.EnableSanitizer(fmt.Sprintf("L2[%d]", id))
	}
	return &refPartition{
		ID:             id,
		l2:             l2,
		dram:           dram,
		st:             st,
		ic:             ic,
		acceptPerCycle: g.ICNTWidth,
	}
}

// L2 exposes the slice's cache for tests and end-of-run accounting.
func (p *refPartition) L2() *Cache { return p.l2 }

// AttachObs connects the partition's L2 slice to an observability sink; its
// events land on the partition's DomPart track.
func (p *refPartition) AttachObs(s *obs.Sink) {
	p.l2.AttachObs(s, obs.DomPart, p.ID)
}

// Tick advances the partition one cycle. DRAM channels are ticked
// separately (they are shared between partitions); completed DRAM reads are
// delivered to the owning partition via DeliverFromDRAM. The returned error
// is the first invariant violation detected by the L2 sanitizer (nil when
// checking is disabled or the slice is healthy).
func (p *refPartition) Tick(now int64) error {
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

	// Replay accesses that previously failed reservation, then accept new
	// traffic from the interconnect.
	if p.retryStalled && len(p.retryQ) > 0 {
		quiet := (p.storeRetries == 0 || p.dram.Full()) && len(p.fillLines) == 0 &&
			p.l2.sink == nil && !(p.l2.MSHRsFree() > 0 && !p.l2.MissQueueFull())
		if !quiet {
			p.replayStalled(now)
		}
		// Otherwise every replay is a proven no-op: demand fails whose only
		// effect is an event on a sink that is not attached, and stores
		// whose push the full DRAM queue rejects.
	} else {
		retry := p.retryQ
		p.retryQ = p.retryQ[:0]
		p.storeRetries = 0
		for _, r := range retry {
			p.access(now, r)
		}
	}
	for i := 0; i < p.acceptPerCycle; i++ {
		r := p.ic.PopForPartition(now, p.ID)
		if r == nil {
			break
		}
		p.access(now, r)
	}
	if p.stallReplayOn && !p.retryStalled && len(p.retryQ) > 0 {
		p.retryStalled = p.retriesStalled()
	}
	return p.l2.SanitizerErr()
}

// retriesStalled reports whether every queued demand retry is provably a
// reservation fail on replay: a full MSHR file (ResFailMSHR) or a full
// miss queue (ResFailQueue), and each retried line neither cached nor in
// flight (a hit or a merge would accept it). Stores are exempt — the
// frozen walk replays them for real (see replayStalled). The conditions
// only change on a DRAM fill or a miss-queue drain, both of which the
// frozen walk observes.
func (p *refPartition) retriesStalled() bool {
	if p.l2.MSHRsFree() > 0 && !p.l2.MissQueueFull() {
		return false
	}
	for _, r := range p.retryQ {
		if r.Kind == Store {
			continue
		}
		if p.l2.Probe(r.LineAddr) || p.l2.InFlight(r.LineAddr) {
			return false
		}
	}
	return true
}

// replayStalled replays the retry queue under the stalled-retry verdict.
// Demand retries the verdict covers are proven reservation fails, so only
// their events are emitted — ResFailMSHR when the MSHR file is full
// (Access checks it before the miss queue), ResFailQueue otherwise. Three
// kinds of retry still take the real access path, in queue order so every
// side effect lands exactly as the plain replay would: stores (their
// replay is a DRAM push attempt — a fail mutates nothing, a success must
// happen for real — so the verdict simply does not cover them), retries
// touching a line this cycle's fills installed or the walk itself
// allocated (they may hit or merge), and retries arriving while a
// reservation (a free MSHR plus a miss-queue slot) is open after a fill
// or miss-queue drain. A real access that leaves its line in flight (a
// fresh allocation) joins fillLines so later same-line retries merge for
// real rather than being frozen incorrectly. Neither the free-MSHR count
// nor the miss-queue headroom ever grows during the walk, so a retry
// frozen here cannot have been affected by a later allocation: the later
// access would itself have needed an open reservation or an
// already-recorded line.
//
//caps:hotpath
func (p *refPartition) replayStalled(now int64) {
	retry := p.retryQ
	p.retryQ = p.retryQ[:0]
	// DRAM fullness is stable across the walk — nothing here pushes while
	// it is full (frozen stores stay queued) and only a push could fill it
	// while it is not — so one probe covers every store retry.
	dramFull := p.dram.Full()
	for _, r := range retry {
		if r.Kind == Store {
			if dramFull {
				// A push against a full channel fails with no other
				// effect: keep the store in place.
				p.retryQ = append(p.retryQ, r) //caps:alloc-ok in-place filter of the drained retry slice; never outgrows it

				continue
			}
			p.storeRetries--
			p.access(now, r)
			continue
		}
		if (p.l2.MSHRsFree() > 0 && !p.l2.MissQueueFull()) || p.lineFilled(r.LineAddr) {
			p.access(now, r)
			if p.l2.InFlight(r.LineAddr) && !p.lineFilled(r.LineAddr) {
				p.fillLines = append(p.fillLines, r.LineAddr) //caps:alloc-ok capacity converges to the peak fills+allocations per cycle

			}
			continue
		}
		p.l2.ReplayResFail(now, r.LineAddr, p.l2.MSHRsFree() > 0)
		p.retryQ = append(p.retryQ, r) //caps:alloc-ok in-place filter of the drained retry slice; never outgrows it

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
// cycle's fills (see replayAfterFills). The list holds at most a few lines,
// so a linear scan beats a map.
func (p *refPartition) lineFilled(line uint64) bool {
	for _, l := range p.fillLines {
		if l == line {
			return true
		}
	}
	return false
}

func (p *refPartition) access(now int64, r *Request) {
	if r.Kind == Store {
		// Write-through, no-allocate at L2 granularity: forward to DRAM,
		// retrying while the channel is full.
		if p.dram.Push(now, r) {
			p.st.L2Accesses++
			p.l2.sink.MemAccess(now, obs.DomPart, p.ID, r.WarpSlot, -1, r.PC, r.LineAddr, obs.AccessStore, false)
		} else {
			// A store retry waits on the DRAM channel, not the MSHR file:
			// the stalled-retry verdict does not cover it, and the frozen
			// walk replays it for real each cycle.
			p.retryQ = append(p.retryQ, r) //caps:alloc-ok capacity converges to the peak retry backlog

			p.storeRetries++
		}
		return
	}
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
		p.st.UncountL2Replay()         // not actually accepted; don't double count
		p.retryQ = append(p.retryQ, r) //caps:alloc-ok capacity converges to the peak retry backlog

	}
}

// DeliverFromDRAM installs a line returning from DRAM and queues responses
// for every waiter. A fill without a matching L2 MSHR is a routing bug and
// is surfaced as an invariant violation.
func (p *refPartition) DeliverFromDRAM(now int64, r *Request) error {
	// The fill frees an MSHR and installs a line: a queued retry may now
	// hit, merge or allocate. Its effect is precisely known, so instead of
	// voiding the stalled-retry verdict (and replaying the whole queue for
	// real), record the filled line for the targeted walk in
	// replayAfterFills.
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
func (p *refPartition) Idle() bool {
	return len(p.hitPipe) == 0 && len(p.retryQ) == 0 &&
		p.l2.MissQueueLen() == 0 && p.l2.OutstandingMSHRs() == 0
}
