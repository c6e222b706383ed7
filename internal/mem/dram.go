package mem

import (
	"caps/internal/config"
	"caps/internal/obs"
	"caps/internal/stats"
)

// DRAMChannel models one GDDR5 channel: a bounded FR-FCFS command queue,
// per-bank row buffers with activate/precharge timing, and a shared data
// bus. All times are kept in core cycles (converted once from the DRAM
// clock domain at construction).

type dramRequest struct {
	req      *Request
	arriveAt int64
	bank     int
	row      uint64
}

type bank struct {
	openRow  uint64
	rowValid bool
	readyAt  int64 // bank can accept a new command at this core cycle
}

type inService struct {
	req      *Request
	finishAt int64
}

// DRAMChannel is one memory channel.
type DRAMChannel struct {
	cfg config.DRAMConfig
	st  *stats.Sim

	queue     []dramRequest
	banks     []bank
	inService []inService
	busFreeAt int64

	// scanAt caches the earliest cycle the FR-FCFS scan can possibly issue
	// a command: when a Tick's scan finds every queued request's bank busy,
	// the next chance is the minimum readyAt among those banks — bank
	// timings only change when a command issues, and a Push (which may
	// target a ready bank) resets the cache. Derived state: it only skips
	// scans that provably pick nothing, so behavior is bit-identical.
	scanAt int64

	// nextDoneAt caches the earliest in-service completion (MaxInt64 when
	// none), so Tick can skip the completions scan on cycles where nothing
	// can mature. Maintained on issue and recomputed whenever the scan
	// runs. Derived state, bit-identical behavior (see scanAt).
	nextDoneAt int64

	// doneBuf is the reused backing array for Tick's completed-transfer
	// result; the caller consumes it before the next Tick.
	doneBuf []*Request

	// Pre-converted core-cycle timings.
	extra    int64 // controller pipeline latency per access
	tRowHit  int64 // tCL
	tRowMiss int64 // tRP + tRCD + tCL
	tRowOpen int64 // tRCD + tCL (bank idle, no row open)
	tWrite   int64 // tCDLR + tWR extra for writes
	tRC      int64 // activate-to-activate on same bank
	burst    int64 // data-bus occupancy per line

	rowShift uint64
	bankMask uint64

	// Observability (nil-safe, see Cache).
	sink   *obs.Sink
	chanID int
}

// NewDRAMChannel builds a channel using the core-clock conversion from g.
func NewDRAMChannel(g config.GPUConfig, st *stats.Sim) *DRAMChannel {
	d := g.DRAM
	ch := &DRAMChannel{
		cfg:      d,
		st:       st,
		banks:    make([]bank, d.BanksPerChannel),
		extra:    int64(d.ExtraLatency),
		tRowHit:  g.DRAMCyclesToCore(d.TCL),
		tRowMiss: g.DRAMCyclesToCore(d.TRP + d.TRCD + d.TCL),
		tRowOpen: g.DRAMCyclesToCore(d.TRCD + d.TCL),
		tWrite:   g.DRAMCyclesToCore(d.TCDLR + d.TWR),
		tRC:      g.DRAMCyclesToCore(d.TRC),
		burst:    g.BurstCoreCycles(),
		rowShift: uint64(bitsFor(d.RowBytes)),
		bankMask: uint64(d.BanksPerChannel - 1),
	}
	if d.BanksPerChannel&(d.BanksPerChannel-1) != 0 {
		// Non-power-of-two bank counts use modulo mapping.
		ch.bankMask = 0
	}
	return ch
}

// AttachObs connects the channel to an observability sink; id names its
// DomDRAM trace track. NewDRAMChannel has no channel id (channels are
// interchangeable until wired into partitions), so identity arrives here.
func (ch *DRAMChannel) AttachObs(s *obs.Sink, id int) {
	ch.sink = s
	ch.chanID = id
}

func (ch *DRAMChannel) mapAddr(lineAddr uint64) (bankIdx int, row uint64) {
	rowID := lineAddr >> ch.rowShift
	if ch.bankMask != 0 {
		bankIdx = int(rowID & ch.bankMask)
		row = rowID >> bitsFor(ch.cfg.BanksPerChannel)
	} else {
		bankIdx = int(rowID % uint64(ch.cfg.BanksPerChannel))
		row = rowID / uint64(ch.cfg.BanksPerChannel)
	}
	return bankIdx, row
}

// Full reports whether the command queue cannot accept another request.
func (ch *DRAMChannel) Full() bool { return len(ch.queue) >= ch.cfg.QueueEntries }

// QueueLen returns the number of waiting commands.
func (ch *DRAMChannel) QueueLen() int { return len(ch.queue) }

// Push enqueues a request; it reports false when the queue is full.
func (ch *DRAMChannel) Push(now int64, r *Request) bool {
	if ch.Full() {
		return false
	}
	b, row := ch.mapAddr(r.LineAddr)
	ch.queue = append(ch.queue, dramRequest{req: r, arriveAt: now, bank: b, row: row}) //caps:alloc-ok bounded by the Full() check; capacity converges to QueueEntries

	ch.scanAt = 0 // the new request's bank may be ready right now
	return true
}

// Tick advances the channel one core cycle: it issues at most one command
// using FR-FCFS (oldest row hit first, then oldest) and returns requests
// whose data transfer completed this cycle.
func (ch *DRAMChannel) Tick(now int64) []*Request {
	// Nothing can mature and nothing can issue: skip both scans.
	if now < ch.nextDoneAt && (len(ch.queue) == 0 || now < ch.scanAt) {
		return nil
	}

	// Collect completed transfers.
	done := ch.doneBuf[:0]
	keep := ch.inService[:0]
	nextDone := int64(maxCycle)
	for _, s := range ch.inService {
		if s.finishAt <= now {
			done = append(done, s.req) //caps:alloc-ok doneBuf capacity converges to the peak completions per cycle

		} else {
			keep = append(keep, s)
			if s.finishAt < nextDone {
				nextDone = s.finishAt
			}
		}
	}
	ch.inService = keep
	ch.doneBuf = done
	ch.nextDoneAt = nextDone

	if len(ch.queue) == 0 || now < ch.scanAt {
		return done
	}

	// FR-FCFS: first ready row hit; otherwise the oldest ready request.
	pick := -1
	for i, q := range ch.queue {
		bk := &ch.banks[q.bank]
		if bk.readyAt > now {
			continue
		}
		if bk.rowValid && bk.openRow == q.row {
			pick = i
			break
		}
		if pick == -1 {
			pick = i
		}
	}
	if pick == -1 {
		// Nothing can issue until the earliest queued bank frees up; cache
		// that bound so the scans in between are skipped (see scanAt).
		next := maxCycle
		for _, q := range ch.queue {
			if r := ch.banks[q.bank].readyAt; r < next {
				next = r
			}
		}
		ch.scanAt = next
		return done
	}

	q := ch.queue[pick]
	copy(ch.queue[pick:], ch.queue[pick+1:])
	ch.queue = ch.queue[:len(ch.queue)-1]

	bk := &ch.banks[q.bank]
	var access int64
	switch {
	case bk.rowValid && bk.openRow == q.row:
		access = ch.tRowHit
		ch.st.DRAMRowHits++
		ch.sink.RowHit(now, ch.chanID, q.bank, q.req.LineAddr)
	case bk.rowValid:
		access = ch.tRowMiss
		ch.st.DRAMRowMisses++
		ch.sink.RowMiss(now, ch.chanID, q.bank, q.req.LineAddr)
	default:
		access = ch.tRowOpen
		ch.st.DRAMRowMisses++
		ch.sink.RowMiss(now, ch.chanID, q.bank, q.req.LineAddr)
	}
	bk.openRow = q.row
	bk.rowValid = true

	// Serialize on the shared data bus after the array access latency.
	dataStart := now + access
	if dataStart < ch.busFreeAt {
		dataStart = ch.busFreeAt
	}
	arrayDone := dataStart + ch.burst
	ch.busFreeAt = arrayDone
	// The controller pipeline latency delays the response but occupies
	// neither the bank nor the bus.
	finish := arrayDone + ch.extra

	// Bank occupancy: row-cycle spacing plus write recovery.
	bankBusy := arrayDone
	if q.req.Kind == Store {
		bankBusy += ch.tWrite
	}
	if minReady := now + ch.tRC; bankBusy < minReady {
		bankBusy = minReady
	}
	bk.readyAt = bankBusy

	if q.req.Kind == Store {
		ch.st.StoresIssued++
		// Writes complete silently; no response travels back.
		return done
	}
	ch.st.DRAMReads++
	ch.inService = append(ch.inService, inService{req: q.req, finishAt: finish})
	if finish < ch.nextDoneAt {
		ch.nextDoneAt = finish
	}
	return done
}

// Idle reports whether the channel has no queued or in-flight work.
func (ch *DRAMChannel) Idle() bool {
	return len(ch.queue) == 0 && len(ch.inService) == 0
}
