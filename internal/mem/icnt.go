package mem

// Interconnect models the SM↔partition crossbar as per-destination output
// queues with a fixed traversal latency and a per-queue per-cycle
// bandwidth. Bounded queue depth provides backpressure: when a partition's
// input queue is full, L1 miss queues back up and the LSU stalls — the
// congestion cascade the paper describes in Section I.

type icntPkt struct {
	readyAt int64
	req     *Request
}

// fifo is a bounded FIFO with latency and per-cycle pop budget.
//
//caps:shared interconnect
type fifo struct {
	items   []icntPkt
	cap     int
	latency int64
	width   int

	lastPopCycle int64
	poppedThis   int
}

func newFifo(capacity, latency, width int) *fifo {
	return &fifo{items: make([]icntPkt, 0, capacity), cap: capacity, latency: int64(latency), width: width}
}

// push enqueues a request; it reports false when the queue is full.
//
//caps:shared-sync icnt-queues
func (f *fifo) push(now int64, r *Request) bool {
	if len(f.items) >= f.cap {
		return false
	}
	f.items = append(f.items, icntPkt{readyAt: now + f.latency, req: r}) //caps:alloc-ok queue is preallocated to its hardware capacity; the full check above bounds it
	return true
}

// pop dequeues the oldest request whose latency has elapsed, respecting the
// per-cycle bandwidth; nil when nothing is deliverable this cycle.
//
//caps:shared-sync icnt-queues
func (f *fifo) pop(now int64) *Request {
	if len(f.items) == 0 {
		return nil
	}
	if now != f.lastPopCycle {
		f.lastPopCycle = now
		f.poppedThis = 0
	}
	if f.poppedThis >= f.width {
		return nil
	}
	head := f.items[0]
	if head.readyAt > now {
		return nil
	}
	copy(f.items, f.items[1:])
	f.items = f.items[:len(f.items)-1]
	f.poppedThis++
	return head.req
}

func (f *fifo) len() int { return len(f.items) }

// free returns the remaining queue capacity.
func (f *fifo) free() int { return f.cap - len(f.items) }

// maxCycle is the "no scheduled event" sentinel (math.MaxInt64 without
// the import).
const maxCycle = int64(^uint64(0) >> 1)

// Interconnect is the full crossbar: one request queue per partition and
// one response queue per SM.
//
//caps:shared interconnect
type Interconnect struct {
	toPart []*fifo
	toSM   []*fifo
}

// NewInterconnect builds the crossbar for the given endpoint counts.
func NewInterconnect(numSMs, numPartitions, queueCap, latency, width int) *Interconnect {
	ic := &Interconnect{
		toPart: make([]*fifo, numPartitions),
		toSM:   make([]*fifo, numSMs),
	}
	for i := range ic.toPart {
		ic.toPart[i] = newFifo(queueCap, latency, width)
	}
	for i := range ic.toSM {
		ic.toSM[i] = newFifo(queueCap, latency, width)
	}
	return ic
}

// PushToPartition sends a request toward its memory partition; false means
// the network is congested and the sender must retry.
func (ic *Interconnect) PushToPartition(now int64, r *Request) bool {
	return ic.toPart[r.Partition].push(now, r)
}

// PopForPartition delivers the next request available for a partition.
func (ic *Interconnect) PopForPartition(now int64, part int) *Request {
	return ic.toPart[part].pop(now)
}

// PushToSM sends a response back toward its SM; false means congestion.
func (ic *Interconnect) PushToSM(now int64, r *Request) bool {
	return ic.toSM[r.SMID].push(now, r)
}

// PopForSM delivers the next response available for an SM.
func (ic *Interconnect) PopForSM(now int64, sm int) *Request {
	return ic.toSM[sm].pop(now)
}

// FreeToPartition reports the remaining queue slots toward a partition:
// the parallel tick's congestion precheck compares it against the worst
// case the SM phase could push this cycle.
func (ic *Interconnect) FreeToPartition(part int) int { return ic.toPart[part].free() }

// PendingToPartition reports the queued request count for a partition.
func (ic *Interconnect) PendingToPartition(part int) int { return ic.toPart[part].len() }

// PendingToSM reports the queued response count for an SM.
func (ic *Interconnect) PendingToSM(sm int) int { return ic.toSM[sm].len() }

// Idle reports whether every queue is empty.
func (ic *Interconnect) Idle() bool {
	for _, f := range ic.toPart {
		if f.len() > 0 {
			return false
		}
	}
	for _, f := range ic.toSM {
		if f.len() > 0 {
			return false
		}
	}
	return true
}
