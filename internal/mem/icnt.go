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

// fifo is a bounded FIFO with latency and per-cycle pop budget, kept as a
// ring over a slice of its hardware capacity so a pop moves no packets.
// headAt caches the head packet's readyAt (maxCycle when empty): packets
// enter in readyAt order, so nothing is deliverable before it, and the
// receivers' due checks read it instead of the ring.
type fifo struct {
	items   []icntPkt
	head, n int
	headAt  int64
	latency int64
	width   int

	lastPopCycle int64
	poppedThis   int
}

func newFifo(capacity, latency, width int) *fifo {
	return &fifo{items: make([]icntPkt, capacity), headAt: maxCycle, latency: int64(latency), width: width}
}

// push enqueues a request; it reports false when the queue is full.
func (f *fifo) push(now int64, r *Request) bool {
	if f.n >= len(f.items) {
		return false
	}
	i := f.head + f.n
	if i >= len(f.items) {
		i -= len(f.items)
	}
	f.items[i] = icntPkt{readyAt: now + f.latency, req: r}
	if f.n == 0 {
		f.headAt = now + f.latency
	}
	f.n++
	return true
}

// pop dequeues the oldest request whose latency has elapsed, respecting the
// per-cycle bandwidth; nil when nothing is deliverable this cycle.
func (f *fifo) pop(now int64) *Request {
	if now < f.headAt {
		return nil
	}
	if now != f.lastPopCycle {
		f.lastPopCycle = now
		f.poppedThis = 0
	}
	if f.poppedThis >= f.width {
		return nil
	}
	h := &f.items[f.head]
	r := h.req
	h.req = nil
	f.head++
	if f.head == len(f.items) {
		f.head = 0
	}
	f.n--
	if f.n == 0 {
		f.headAt = maxCycle
	} else {
		f.headAt = f.items[f.head].readyAt
	}
	f.poppedThis++
	return r
}

func (f *fifo) len() int { return f.n }

// maxCycle is the "no scheduled event" sentinel (math.MaxInt64 without
// the import).
const maxCycle = int64(^uint64(0) >> 1)

// Interconnect is the full crossbar: one request queue per partition and
// one response queue per SM.
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

// ResponseReady reports whether a response toward the SM has served its
// latency by now: SM.Tick drains its inbox only then.
func (ic *Interconnect) ResponseReady(now int64, sm int) bool { return now >= ic.toSM[sm].headAt }

// PushToSM sends a response back toward its SM; false means congestion.
func (ic *Interconnect) PushToSM(now int64, r *Request) bool {
	return ic.toSM[r.SMID].push(now, r)
}

// PopForSM delivers the next response available for an SM.
func (ic *Interconnect) PopForSM(now int64, sm int) *Request {
	return ic.toSM[sm].pop(now)
}

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
