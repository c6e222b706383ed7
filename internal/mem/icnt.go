package mem

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Interconnect models the SM↔partition crossbar as per-destination output
// queues with a fixed traversal latency and a per-queue per-cycle
// bandwidth. Bounded queue depth provides backpressure: when a partition's
// input queue is full, L1 miss queues back up and the LSU stalls — the
// congestion cascade the paper describes in Section I.
//
// Each queue has one producer and one consumer: the SMs push requests
// toward the partitions and the partitions pop them, the partitions push
// responses toward the SMs and the SMs pop them. When the GPU runs its
// memory domain on a goroutine of its own (Share), the two sides of a
// queue are two goroutines, and the queues and two clocks are the only
// state they exchange.

type icntPkt struct {
	readyAt int64
	req     *Request
}

// fifo is a bounded FIFO with latency and per-cycle pop budget, kept as a
// ring over a slice of its hardware capacity so a pop moves no packets.
// headAt caches the head packet's readyAt (maxCycle when empty): packets
// enter in readyAt order, so nothing is deliverable before it, and the
// receivers' due checks read it instead of the ring.
//
// The consumer owns head, popped, headAt and the pop budget; the producer
// owns tail and pushed. A serial queue's consumer reads pushed and its
// producer keeps headAt current. A shared queue's sides publish their
// counts (pub, popPub) only when their domain publishes its clock, and
// each reads the other's published count only when its own view cannot
// decide: the consumer once every packet it saw is popped (poll), the
// producer once the slot it reuses may still be occupied (free). With no
// seen packet left, headAt is the earliest cycle an unseen one can be
// ready.
type fifo struct {
	items  []icntPkt
	head   int
	popped int64
	headAt int64
	width  int

	lastPopCycle int64
	poppedThis   int

	// shared is set while the producer and the consumer run on two
	// goroutines. seen is then the consumer's last read of pub, and prod
	// the producer's clock. A shared response queue also stamps each
	// slot's pop cycle in poppedAt: its producer reads the stamp to tell
	// an SM pop before its cut from one after (see free).
	shared   bool
	seen     int64
	prod     *clock
	poppedAt []int64

	// The producer's half. popSeen is its last read of popPub. ic is the
	// shared Interconnect on a request queue, whose push may wait for the
	// memory domain, and nil on a response queue. The two halves share
	// cache lines: splitting them slowed the serial path and did not speed
	// up the shared one.
	tail    int
	pushed  int64
	popSeen int64
	latency int64
	ic      *Interconnect

	// pub and popPub are the published push and pop counts, each on a
	// cache line of its own.
	_      [64]byte
	pub    int64
	_      [56]byte
	popPub int64
	_      [56]byte
}

func newFifo(capacity, latency, width int) *fifo {
	return &fifo{items: make([]icntPkt, capacity), headAt: maxCycle, latency: int64(latency), width: width}
}

// push enqueues a request at now; it reports false when the queue is
// full. cut is the last cycle whose pops the push sees: a serial queue has
// run exactly those, and a shared one decides what the serial order would
// (free).
func (f *fifo) push(now, cut int64, r *Request) bool {
	if f.shared {
		if !f.free(cut) {
			return false
		}
	} else if f.pushed-f.popped >= int64(len(f.items)) {
		return false
	}
	ready := now + f.latency
	f.items[f.tail] = icntPkt{readyAt: ready, req: r}
	f.tail++
	if f.tail == len(f.items) {
		f.tail = 0
	}
	if !f.shared && f.pushed == f.popped {
		f.headAt = ready
	}
	f.pushed++
	return true
}

// free reports whether the packet whose slot the push reuses had left a
// shared queue by cycle cut. A response push sees the SMs' pops through the
// cycle before its own: the SM domain publishes its pops before its clock
// and the memory domain runs a cycle only once that clock has reached it,
// so every pop before the cut is published, and the slot's stamp rules
// out those after it. A request push sees the partitions' pops through
// its own cycle, which the memory domain never passes, so a published pop
// is before the cut. An unpublished one may still come unless the packet
// is not ready by cut (a full queue of packets younger than the latency,
// nearly every full request queue on BFS-CAPS); otherwise the push
// publishes the SMs' clock at cut and waits until the memory domain has
// either popped the packet or completed cut.
func (f *fifo) free(cut int64) bool {
	j := f.pushed - int64(len(f.items))
	if j < f.popSeen || j < f.loadPops() {
		return f.ic != nil || f.poppedAt[f.tail] <= cut
	}
	if f.ic == nil || f.items[f.tail].readyAt > cut {
		return false
	}
	f.ic.PublishSM(cut)
	for round := 0; ; round++ {
		done := f.ic.MemDone()
		if j < f.loadPops() {
			return true
		}
		if done > cut {
			return false
		}
		Backoff(round, true)
	}
}

// loadPops reads the consumer's published pop count into popSeen.
func (f *fifo) loadPops() int64 {
	f.popSeen = atomic.LoadInt64(&f.popPub)
	return f.popSeen
}

// publishPushes and publishPops make a shared queue's pushes and pops so
// far visible to the other side.
func (f *fifo) publishPushes() {
	if f.pub != f.pushed {
		atomic.StoreInt64(&f.pub, f.pushed)
	}
}

func (f *fifo) publishPops() {
	if f.popPub != f.popped {
		atomic.StoreInt64(&f.popPub, f.popped)
	}
}

// ready reports whether a packet has served its latency by now. On a
// shared queue the consumer's domain polls first (Interconnect.PollSM,
// PollMem), so headAt is exact or a bound no packet beats.
func (f *fifo) ready(now int64) bool { return now >= f.headAt }

// poll sets a shared queue's headAt from its next packet. With every seen
// packet popped it reads the published pushes, and the producer's clock
// before them: a push not published by then happened at or after that
// clock (see Interconnect.Share), so with nothing new no packet can be
// ready before the clock plus the latency.
func (f *fifo) poll() {
	if f.popped == f.seen {
		clk := f.prod.Load()
		if f.seen = atomic.LoadInt64(&f.pub); f.popped == f.seen {
			f.headAt = min(clk, maxCycle-f.latency) + f.latency
			return
		}
	}
	f.headAt = f.items[f.head].readyAt
}

// due polls a shared queue whose headAt has come with no seen packet left.
func (f *fifo) due(now int64) {
	if now >= f.headAt && f.popped == f.seen {
		f.poll()
	}
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
	if f.poppedAt != nil {
		f.poppedAt[f.head] = now
	}
	f.head++
	if f.head == len(f.items) {
		f.head = 0
	}
	f.popped++
	switch {
	case f.shared:
		f.poll()
	case f.popped != f.pushed:
		f.headAt = f.items[f.head].readyAt
	default:
		f.headAt = maxCycle
	}
	f.poppedThis++
	return r
}

// len is the queued packet count. On a shared queue only a reader that has
// synchronized with both sides (the GPU between its domains' cycles) may
// call it.
func (f *fifo) len() int { return int(f.pushed - f.popped) }

// share switches the queue to two goroutines, prod being the producer's
// clock and ic nil on a response queue: every push and pop so far is
// published and seen, and a response queue's pops so far are stamped
// before any cut.
func (f *fifo) share(prod *clock, ic *Interconnect) {
	f.shared, f.prod, f.ic = true, prod, ic
	if ic == nil {
		f.poppedAt = make([]int64, len(f.items))
		for i := range f.poppedAt {
			f.poppedAt[i] = minCycle
		}
	}
	f.pub, f.seen = f.pushed, f.pushed
	f.popPub, f.popSeen = f.popped, f.popped
	if f.popped == f.pushed {
		f.headAt = minCycle // no bound known yet: the first due check polls
	}
}

// unshare returns the queue to one goroutine, taking headAt back from the
// ring: a shared producer does not keep it.
func (f *fifo) unshare() {
	f.shared, f.prod, f.ic, f.poppedAt = false, nil, nil, nil
	f.headAt = maxCycle
	if f.pushed != f.popped {
		f.headAt = f.items[f.head].readyAt
	}
}

// maxCycle is the "no scheduled event" sentinel (math.MaxInt64 without
// the import); minCycle is its opposite.
const (
	maxCycle = int64(^uint64(0) >> 1)
	minCycle = -maxCycle - 1
)

// A cross-goroutine wait spins for its first backoffSpins rounds, then
// yields to the Go scheduler; a wait that may park does so from round
// backoffYields on, for backoffNap a round. A yield keeps the thread
// running, so on a host whose processors are busy with other work (two
// overlapped runs in two processes on two processors) the thread the wait
// is for may not run until the yielding one is preempted; parking hands it
// the processor. The nap is short because a sleep this short parks for
// about 10 µs, while one of 20 µs or more waits for the runtime's
// millisecond timer.
const (
	backoffSpins  = 64
	backoffYields = 512
	backoffNap    = 5 * time.Microsecond
)

// Backoff is one round of a wait on the other domain's goroutine (see
// Interconnect.Share); park lets a long wait park its thread.
func Backoff(round int, park bool) {
	switch {
	case round < backoffSpins:
	case round < backoffYields || !park:
		runtime.Gosched() //caps:alloc-ok yields the processor to the Go scheduler; allocates nothing
	default:
		time.Sleep(backoffNap) //caps:alloc-ok parks the thread on a runtime timer; allocates nothing
	}
}

// clock is a published cycle counter on a cache line of its own.
type clock struct {
	atomic.Int64
	_ [56]byte
}

// Interconnect is the full crossbar: one request queue per partition and
// one response queue per SM.
type Interconnect struct {
	toPart []*fifo
	toSM   []*fifo

	// smAt and memDone are the domains' published clocks while shared.
	smAt, memDone *clock
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

// Share puts the SMs and the memory units on two goroutines, the SM
// domain and the memory domain: from here on a push on one side and a pop
// on the other may run at once. Each domain publishes its progress as a
// clock: the SMs the last cycle they started (PublishSM), the memory units
// the number of cycles they completed (PublishMem). Publishing first makes
// that domain's pushes and pops so far visible to the other, so a push the
// other side has not seen happened at or after the published clock. The
// caller keeps the band: the memory domain runs a cycle only once the SMs
// have published it as started, and the SMs run cycle s only once the
// memory domain has completed s-latency. It polls each domain's queues
// (PollSM, PollMem) before the domain's units check them. Call Share, and
// Unshare, while neither side runs.
func (ic *Interconnect) Share() {
	ic.smAt, ic.memDone = &clock{}, &clock{}
	for _, f := range ic.toPart {
		f.share(ic.smAt, ic)
	}
	for _, f := range ic.toSM {
		f.share(ic.memDone, nil)
	}
}

// Unshare returns the crossbar to one goroutine (see Share).
func (ic *Interconnect) Unshare() {
	for _, f := range ic.toPart {
		f.unshare()
	}
	for _, f := range ic.toSM {
		f.unshare()
	}
	ic.smAt, ic.memDone = nil, nil
}

// PublishSM publishes the SMs' request pushes and response pops, then
// started as the last cycle the SM domain started.
func (ic *Interconnect) PublishSM(started int64) {
	for _, f := range ic.toPart {
		f.publishPushes()
	}
	for _, f := range ic.toSM {
		f.publishPops()
	}
	if ic.smAt.Load() != started {
		ic.smAt.Store(started)
	}
}

// PublishMem publishes the partitions' response pushes and request pops,
// then done as the number of cycles the memory domain completed.
func (ic *Interconnect) PublishMem(done int64) {
	for _, f := range ic.toSM {
		f.publishPushes()
	}
	for _, f := range ic.toPart {
		f.publishPops()
	}
	if ic.memDone.Load() != done {
		ic.memDone.Store(done)
	}
}

// PollSM brings the SMs' response queues up to date at cycle now, before
// any SM checks one (see fifo.ready).
func (ic *Interconnect) PollSM(now int64) {
	for _, f := range ic.toSM {
		f.due(now)
	}
}

// PollMem brings the partitions' request queues up to date at cycle now,
// before any partition checks one.
func (ic *Interconnect) PollMem(now int64) {
	for _, f := range ic.toPart {
		f.due(now)
	}
}

// SMStarted is the SM domain's published clock (see Share).
func (ic *Interconnect) SMStarted() int64 { return ic.smAt.Load() }

// MemDone is the memory domain's published clock (see Share).
func (ic *Interconnect) MemDone() int64 { return ic.memDone.Load() }

// PushToPartition sends a request toward its memory partition; false means
// the network is congested and the sender must retry. In the serial order
// the partitions tick before the SMs, so the push sees their pops through
// now.
func (ic *Interconnect) PushToPartition(now int64, r *Request) bool {
	return ic.toPart[r.Partition].push(now, now, r)
}

// PopForPartition delivers the next request available for a partition.
func (ic *Interconnect) PopForPartition(now int64, part int) *Request {
	return ic.toPart[part].pop(now)
}

// ResponseReady reports whether a response toward the SM has served its
// latency by now: SM.Tick drains its inbox only then.
func (ic *Interconnect) ResponseReady(now int64, sm int) bool { return ic.toSM[sm].ready(now) }

// PushToSM sends a response back toward its SM; false means congestion.
// The SMs tick after the partitions, so the push sees their pops through
// the cycle before now.
func (ic *Interconnect) PushToSM(now int64, r *Request) bool {
	return ic.toSM[r.SMID].push(now, now-1, r)
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
