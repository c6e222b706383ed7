package mem

import (
	"encoding/binary"
	"fmt"
	"hash"
	"sort"

	"caps/internal/config"
	"caps/internal/invariant"
	"caps/internal/obs"
)

// Outcome classifies one cache access.
type Outcome uint8

// Access outcomes. ResFail outcomes model GPGPU-Sim's "reservation fail":
// the access could not even be accepted and must be replayed, stalling the
// LSU — the mechanism behind the bursty-miss pipeline stalls of Section I.
const (
	Hit          Outcome = iota // data present
	MissNew                     // allocated an MSHR; request must go downstream
	MissMerged                  // merged into an in-flight MSHR
	ResFailMSHR                 // no free MSHR
	ResFailQueue                // miss queue full
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case MissNew:
		return "miss"
	case MissMerged:
		return "merged"
	case ResFailMSHR:
		return "resfail-mshr"
	case ResFailQueue:
		return "resfail-queue"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// AccessResult reports what happened on an access plus the prefetch
// bookkeeping the stats layer needs.
type AccessResult struct {
	Outcome Outcome

	// Hit on a line that was brought in by a prefetch and not yet used:
	// the prefetch was useful. PrefIssueCycle allows computing the
	// prefetch-to-demand distance (Fig. 14b).
	FirstUseOfPrefetch bool
	PrefIssueCycle     int64
	PrefPC             uint32

	// A demand access merged into an MSHR that was allocated by a
	// prefetch: a late-but-useful prefetch.
	MergedIntoPrefetch bool
}

// FillResult reports the consequences of installing a line.
type FillResult struct {
	Waiters []*Request // requests (original + merged) waiting on this line
	// EvictedUnusedPrefetch is true when the victim line was prefetched
	// and evicted before any demand touched it (Fig. 14a numerator).
	EvictedUnusedPrefetch bool
	EvictedPrefPC         uint32
}

type cacheLine struct {
	tag     uint64 // line address
	valid   bool
	lastUse int64
	// Prefetch bookkeeping.
	prefetched     bool
	prefUsed       bool
	prefPC         uint32
	prefWarp       int
	prefIssueCycle int64
}

type mshrEntry struct {
	lineAddr uint64
	waiters  []*Request
	// The entry was allocated by a prefetch and no demand has merged yet.
	prefetchOnly bool
	// A demand merged into a prefetch-allocated entry: it now serves
	// demand but never passed the demand MSHR admission check.
	converted      bool
	prefPC         uint32
	prefWarp       int
	prefIssueCycle int64
}

// Cache is a set-associative, LRU, allocate-on-fill cache with MSHRs and a
// bounded miss queue. It is used for both L1D (per SM) and the L2 slices.
type Cache struct {
	cfg   config.CacheConfig
	sets  [][]cacheLine
	mshrs mshrTable
	missQ []*Request

	// entryFree recycles MSHR entries (with their waiter-slice capacity)
	// freed by Fill, so steady-state misses allocate nothing. A recycled
	// entry's waiters backing array is only reused by a later Access,
	// after the FillResult that exposed it has been consumed — both tick
	// loops drain Waiters before presenting new accesses.
	entryFree []*mshrEntry

	// protectPrefetched shields prefetched-but-unconsumed lines from
	// eviction. Only the L1 (where the prefetcher fills and the consumer
	// reads) uses this; at lower levels a prefetched line may never see
	// its consuming access, so protection would permanently lock ways.
	protectPrefetched bool

	// prefetchPool sizes the prefetch request buffer: prefetch-only
	// misses are tracked in the MSHR table but occupy these entries rather
	// than demand MSHRs (0 disables prefetch misses entirely).
	prefetchPool int
	prefetchOnly int // current prefetch-only entries
	converted    int // prefetch entries a demand merged into, still outstanding

	setShift uint64
	setMask  uint64

	// Observability: sink is nil unless AttachObs was called; every use is
	// nil-safe so the disabled path costs one branch inside the sink call.
	sink    *obs.Sink
	sinkDom obs.Domain
	sinkID  int

	// heldMSHRFails and heldQueueFails are the reservation fails counted
	// but not yet reported to the sink, by ResFail's label (see
	// HoldResFails). Observation only, excluded from determinism hashes.
	heldMSHRFails, heldQueueFails int64

	// Sanitizer state (see internal/invariant). When enabled, every
	// Access/Fill/PopMiss re-audits the MSHR and miss-queue accounting and
	// latches the first violation for the owning tick loop to surface.
	sanitize     bool
	label        string
	violation    error
	sanitizeLast int64 // cycle of the most recent timed operation
	auditedAt    int64 // last cycle any audit ran (at most one per cycle)
	deepAuditAt  int64 // last cycle the O(n) cross-checks ran
}

// deepAuditStride bounds how stale the O(outstanding-MSHRs) cross-checks
// may get: the cheap O(1) bound checks run every audited cycle, the full
// scan at most this many cycles apart. Corruption is therefore reported
// within deepAuditStride cycles of introduction, at tick-loop granularity.
const deepAuditStride = 16

// AttachObs connects the cache to an observability sink; dom and id name the
// trace track (DomSM + SM id for an L1, DomPart + partition id for an L2
// slice). Attaching a nil sink is a no-op at every event site.
func (c *Cache) AttachObs(s *obs.Sink, dom obs.Domain, id int) {
	c.sink = s
	c.sinkDom = dom
	c.sinkID = id
}

// EnableSanitizer switches on per-operation invariant auditing; label names
// the cache level in violation reports (e.g. "L1[3]", "L2[0]").
func (c *Cache) EnableSanitizer(label string) {
	c.sanitize = true
	c.label = label
	c.auditedAt = -1
	c.deepAuditAt = -1
}

// SanitizerErr returns the first invariant violation the sanitizer latched,
// or nil. The tick loops poll it once per cycle.
func (c *Cache) SanitizerErr() error { return c.violation }

// Label returns the sanitizer label, defaulting to "cache".
func (c *Cache) Label() string {
	if c.label == "" {
		return "cache"
	}
	return c.label
}

// audit latches the first invariant failure when sanitizing. It runs at
// most once per cycle — the sanitizer's granularity is the cycle, not the
// individual operation — and tiers its work: the O(1) counter-bound checks
// run every audited cycle, the O(outstanding MSHRs) cross-checks every
// deepAuditStride cycles.
func (c *Cache) audit(now int64) {
	c.sanitizeLast = now
	if c.violation != nil || c.auditedAt == now {
		return
	}
	c.auditedAt = now
	if c.deepAuditAt < 0 || now-c.deepAuditAt >= deepAuditStride {
		c.deepAuditAt = now
		c.violation = c.CheckInvariants(now)
	} else {
		c.violation = c.checkBounds(now)
	}
}

// CheckInvariants audits the bookkeeping the paper's results depend on:
// demand-admitted MSHRs never exceed MSHREntries, the prefetch-only
// population stays within its dedicated pool and within the MSHR map, the
// miss queue respects its bound, and every queued miss has a live MSHR.
//
// A demand merge into a prefetch-only entry converts it: the entry serves
// demand from then on but was admitted through the prefetch buffer, not a
// demand MSHR, so converted entries are excluded from the MSHREntries bound
// (the admission check in Access never gated them against it).
func (c *Cache) CheckInvariants(now int64) error {
	if err := c.checkBounds(now); err != nil {
		return err
	}
	tagged, conv := 0, 0
	for _, e := range c.mshrs.slots {
		if e == nil {
			continue
		}
		if e.prefetchOnly {
			tagged++
		}
		if e.converted {
			conv++
		}
	}
	if tagged != c.prefetchOnly {
		return invariant.Errorf(c.Label(), now, "prefetch-only counter (%d) disagrees with tagged MSHR entries (%d)",
			c.prefetchOnly, tagged)
	}
	if conv != c.converted {
		return invariant.Errorf(c.Label(), now, "converted counter (%d) disagrees with tagged MSHR entries (%d)",
			c.converted, conv)
	}
	for _, r := range c.missQ {
		if c.mshrs.get(r.LineAddr) == nil {
			return invariant.Errorf(c.Label(), now, "queued miss for line %#x has no MSHR", r.LineAddr)
		}
	}
	return nil
}

// checkBounds is the O(1) slice of the audit: every counter against its
// hardware bound, no scans. It runs on every audited cycle.
func (c *Cache) checkBounds(now int64) error {
	pool := c.prefetchPool
	if pool < 0 {
		pool = 0
	}
	outstanding := c.mshrs.len()
	admitted := outstanding - c.prefetchOnly - c.converted
	switch {
	case c.prefetchOnly < 0:
		return invariant.Errorf(c.Label(), now, "prefetch-only MSHR count is negative (%d)", c.prefetchOnly)
	case c.converted < 0:
		return invariant.Errorf(c.Label(), now, "converted MSHR count is negative (%d)", c.converted)
	case c.prefetchOnly > outstanding:
		return invariant.Errorf(c.Label(), now, "prefetch-only MSHRs (%d) exceed total outstanding MSHRs (%d)",
			c.prefetchOnly, outstanding)
	case pool > 0 && c.prefetchOnly > pool:
		return invariant.Errorf(c.Label(), now, "prefetch-only MSHRs (%d) exceed the prefetch buffer (%d entries)",
			c.prefetchOnly, pool)
	case admitted < 0:
		return invariant.Errorf(c.Label(), now, "demand-admitted MSHRs (%d) negative: %d outstanding, %d prefetch-only, %d converted",
			admitted, outstanding, c.prefetchOnly, c.converted)
	case admitted > c.cfg.MSHREntries:
		return invariant.Errorf(c.Label(), now, "demand-admitted MSHRs (%d) exceed MSHREntries (%d)",
			admitted, c.cfg.MSHREntries)
	case len(c.missQ) > c.cfg.MissQueue:
		return invariant.Errorf(c.Label(), now, "miss queue depth (%d) exceeds bound (%d)",
			len(c.missQ), c.cfg.MissQueue)
	}
	return nil
}

// HashState folds the cache's architectural state — resident lines, MSHR
// occupancy and the miss queue — into h for the determinism harness. The
// MSHR keys are sorted first, so the hash is independent of table layout.
func (c *Cache) HashState(h hash.Hash64) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, set := range c.sets {
		for i := range set {
			ln := &set[i]
			if !ln.valid {
				word(0)
				continue
			}
			word(1)
			word(ln.tag)
			word(uint64(ln.lastUse))
			bits := uint64(0)
			if ln.prefetched {
				bits |= 1
			}
			if ln.prefUsed {
				bits |= 2
			}
			word(bits)
		}
	}
	keys := make([]uint64, 0, c.mshrs.len())
	for _, e := range c.mshrs.slots {
		if e != nil {
			keys = append(keys, e.lineAddr)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		e := c.mshrs.get(k)
		word(k)
		word(uint64(len(e.waiters)))
		if e.prefetchOnly {
			word(1)
		} else {
			word(0)
		}
	}
	word(uint64(c.prefetchOnly))
	for _, r := range c.missQ {
		word(r.LineAddr)
	}
}

// NewCache builds an L1-style cache: prefetched-but-unconsumed lines are
// shielded from eviction and prefetch misses draw from a 16-entry request
// buffer. The geometry must have been validated by
// config.CacheConfig.Validate.
func NewCache(cfg config.CacheConfig) *Cache {
	return NewCacheWithPrefetchPool(cfg, true, 16)
}

// NewCacheLevel builds a cache with explicit control over prefetched-line
// eviction protection (false for shared lower levels such as L2).
func NewCacheLevel(cfg config.CacheConfig, protectPrefetched bool) *Cache {
	return NewCacheWithPrefetchPool(cfg, protectPrefetched, 0)
}

// NewCacheWithPrefetchPool builds a cache whose prefetch-only misses draw
// from a dedicated pool of prefetchPool entries instead of demand MSHRs.
func NewCacheWithPrefetchPool(cfg config.CacheConfig, protectPrefetched bool, prefetchPool int) *Cache {
	sets := cfg.Sets()
	c := &Cache{
		cfg:               cfg,
		protectPrefetched: protectPrefetched,
		prefetchPool:      prefetchPool,
		sets:              make([][]cacheLine, sets),
		mshrs:             newMSHRTable(cfg.MSHREntries + max(prefetchPool, 0)),
		missQ:             make([]*Request, 0, cfg.MissQueue),
	}
	for i := range c.sets {
		c.sets[i] = make([]cacheLine, cfg.Ways)
	}
	c.setShift = uint64(bitsFor(cfg.LineBytes))
	c.setMask = uint64(sets - 1)
	return c
}

func bitsFor(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}

func (c *Cache) setIndex(lineAddr uint64) int {
	return int((lineAddr >> c.setShift) & c.setMask)
}

// Config returns the cache geometry.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// Probe reports whether the line is present without touching LRU state.
//
//caps:hotpath
func (c *Cache) Probe(lineAddr uint64) bool {
	set := c.sets[c.setIndex(lineAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

// InFlight reports whether the line has an allocated MSHR.
func (c *Cache) InFlight(lineAddr uint64) bool {
	return c.mshrs.get(lineAddr) != nil
}

// MSHRsFree returns the number of unallocated demand MSHRs.
func (c *Cache) MSHRsFree() int { return c.cfg.MSHREntries - (c.mshrs.len() - c.prefetchOnly) }

// MissQueueLen returns the current depth of the outgoing miss queue.
func (c *Cache) MissQueueLen() int { return len(c.missQ) }

// Access presents one request to the cache. On MissNew the request is
// appended to the miss queue (drain it with PopMiss). On MissMerged the
// request is parked on the in-flight MSHR and will be returned by Fill.
//
//caps:hotpath
func (c *Cache) Access(now int64, req *Request) AccessResult {
	if c.sanitize {
		defer c.audit(now) //caps:alloc-ok sanitizer cordon: auditing runs only under CheckInvariants

	}
	set := c.sets[c.setIndex(req.LineAddr)]
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == req.LineAddr {
			ln.lastUse = now
			res := AccessResult{Outcome: Hit}
			if req.Kind == Demand && ln.prefetched && !ln.prefUsed {
				ln.prefUsed = true
				res.FirstUseOfPrefetch = true
				res.PrefIssueCycle = ln.prefIssueCycle
				res.PrefPC = ln.prefPC
			}
			c.sink.MemAccess(now, c.sinkDom, c.sinkID, req.WarpSlot, -1, req.PC, req.LineAddr, obs.AccessHit, req.Kind == Prefetch)
			return res
		}
	}
	// Miss: merge into an in-flight MSHR if present.
	if e := c.mshrs.get(req.LineAddr); e != nil {
		e.waiters = append(e.waiters, req) //caps:alloc-ok waiter capacity is retained across entry recycling and converges to the peak merge depth
		res := AccessResult{Outcome: MissMerged}
		c.sink.MSHRMerge(now, c.sinkDom, c.sinkID, req.LineAddr)
		if req.Kind == Demand && e.prefetchOnly {
			// The entry now serves demand: move it from the prefetch
			// buffer into the demand MSHR population.
			e.prefetchOnly = false
			e.converted = true
			c.prefetchOnly--
			c.converted++
			res.MergedIntoPrefetch = true
			res.PrefIssueCycle = e.prefIssueCycle
			res.PrefPC = e.prefPC
			c.sink.MSHRConvert(now, c.sinkID, req.LineAddr)
		}
		c.sink.MemAccess(now, c.sinkDom, c.sinkID, req.WarpSlot, -1, req.PC, req.LineAddr, obs.AccessMissMerged, req.Kind == Prefetch)
		return res
	}
	// New miss: demand misses need a demand MSHR; at a cache with a
	// prefetch request buffer (the L1), prefetch misses draw from that
	// pool instead. Caches without a pool (the L2 slices, which see
	// prefetch requests only as upstream misses to refill) treat them as
	// ordinary misses. Both need a miss-queue slot.
	usePool := req.Kind == Prefetch && c.prefetchPool > 0
	if usePool {
		if c.prefetchOnly >= c.prefetchPool {
			c.resFail(now, req.LineAddr, false)
			return AccessResult{Outcome: ResFailMSHR}
		}
	} else if c.mshrs.len()-c.prefetchOnly >= c.cfg.MSHREntries {
		c.resFail(now, req.LineAddr, false)
		return AccessResult{Outcome: ResFailMSHR}
	}
	if len(c.missQ) >= c.cfg.MissQueue {
		c.resFail(now, req.LineAddr, true)
		return AccessResult{Outcome: ResFailQueue}
	}
	c.sink.MSHRAlloc(now, c.sinkDom, c.sinkID, req.LineAddr, usePool)
	e := c.newEntry(req.LineAddr)
	c.mshrs.put(e)
	e.waiters = append(e.waiters, req) //caps:alloc-ok waiter capacity is retained across entry recycling and converges to the peak merge depth
	if usePool {
		e.prefetchOnly = true
		c.prefetchOnly++
		e.prefPC = req.PC
		e.prefWarp = req.WarpSlot
		e.prefIssueCycle = req.IssueCycle
	}
	c.missQ = append(c.missQ, req) //caps:alloc-ok missQ is preallocated to cfg.MissQueue; the bound check above holds it there
	c.sink.MemAccess(now, c.sinkDom, c.sinkID, req.WarpSlot, -1, req.PC, req.LineAddr, obs.AccessMissNew, req.Kind == Prefetch)
	return AccessResult{Outcome: MissNew}
}

// ReplayResFail records the reservation fail a full Access would produce
// for a demand request replayed against a provably fail-bound cache (line
// absent, not in flight, and either no free demand MSHR — queue=false — or
// a full miss queue, queue=true, matching Access's check order), without
// touching cache state. The structural-stall replays call it in place of
// an Access whose fail outcome is already known, so counters and any
// subscribed event stream match a run that presents the doomed request
// every cycle.
//
//caps:hotpath
func (c *Cache) ReplayResFail(now int64, lineAddr uint64, queue bool) {
	c.resFail(now, lineAddr, queue)
}

// resFail records one reservation fail: an EvResFail event when something
// receives the kind, and otherwise only a held count (HoldResFails).
func (c *Cache) resFail(now int64, lineAddr uint64, queue bool) {
	if c.sink.Live(obs.EvResFail) {
		c.sink.ResFail(now, c.sinkDom, c.sinkID, lineAddr, queue)
		return
	}
	c.HoldResFails(queue, 1)
}

// HoldResFails counts n reservation fails, labelled as ResFail labels
// them, without an event: the fails of a settled span, or any fail while
// EvResFail has no receiver, whose only trace is the sink's counter. The
// cache holds them until FlushResFails, so a fail costs one add rather
// than a sink call. Callers other than resFail must have checked that
// EvResFail is dead (see obs.Sink.Live).
func (c *Cache) HoldResFails(queue bool, n int64) {
	if queue {
		c.heldQueueFails += n
	} else {
		c.heldMSHRFails += n
	}
}

// FlushResFails hands the held fails to the sink's counters, one
// Sink.ResFails call per label. The owner settles it before anything
// reads the sink (SM.flushRuns, Partition.Settle).
func (c *Cache) FlushResFails() {
	if c.heldMSHRFails > 0 {
		c.sink.ResFails(c.sinkDom, c.sinkID, false, c.heldMSHRFails)
		c.heldMSHRFails = 0
	}
	if c.heldQueueFails > 0 {
		c.sink.ResFails(c.sinkDom, c.sinkID, true, c.heldQueueFails)
		c.heldQueueFails = 0
	}
}

// MissQueueFull reports whether the outgoing miss queue is at capacity, in
// which case a new (unmergeable) miss fails with ResFailQueue.
func (c *Cache) MissQueueFull() bool { return len(c.missQ) >= c.cfg.MissQueue }

// newEntry returns a recycled (or new) MSHR entry with empty waiters.
func (c *Cache) newEntry(lineAddr uint64) *mshrEntry {
	if n := len(c.entryFree); n > 0 {
		e := c.entryFree[n-1]
		c.entryFree = c.entryFree[:n-1]
		*e = mshrEntry{lineAddr: lineAddr, waiters: e.waiters[:0]}
		return e
	}
	return &mshrEntry{lineAddr: lineAddr} //caps:alloc-ok free-list warm-up; steady state recycles entries freed by Fill
}

// PopMiss removes and returns the oldest queued miss, or nil.
func (c *Cache) PopMiss() *Request {
	if len(c.missQ) == 0 {
		return nil
	}
	r := c.missQ[0]
	copy(c.missQ, c.missQ[1:])
	c.missQ = c.missQ[:len(c.missQ)-1]
	if c.sanitize {
		c.audit(c.sanitizeLast) //caps:alloc-ok sanitizer cordon: auditing runs only under CheckInvariants

	}
	return r
}

// PeekMiss returns the oldest queued miss without removing it, or nil.
func (c *Cache) PeekMiss() *Request {
	if len(c.missQ) == 0 {
		return nil
	}
	return c.missQ[0]
}

// Fill installs a line returning from downstream, frees its MSHR, and
// returns the waiting requests. The victim is the LRU way; an evicted
// prefetched-but-unused victim is reported for the Fig. 14a statistic.
//
// A fill with no outstanding MSHR can only be a logic bug upstream (a
// response was duplicated, misrouted or replayed); it is reported as an
// invariant.Violation naming the cache level, line address and cycle so the
// tick loop can abort the run with context instead of panicking.
//
//caps:hotpath
func (c *Cache) Fill(now int64, lineAddr uint64) (FillResult, error) {
	if c.sanitize {
		defer c.audit(now) //caps:alloc-ok sanitizer cordon: auditing runs only under CheckInvariants

	}
	e := c.mshrs.del(lineAddr)
	if e == nil {
		return FillResult{}, invariant.Errorf(c.Label(), now, "fill for line %#x without an outstanding MSHR", lineAddr) //caps:alloc-ok run-aborting error path: a fill without an MSHR ends the simulation
	}
	if e.prefetchOnly {
		c.prefetchOnly--
	}
	if e.converted {
		c.converted--
	}

	set := c.sets[c.setIndex(lineAddr)]
	// Victim selection: invalid first, then LRU among lines that are not
	// prefetched-and-unconsumed (prefetched data was bought with memory
	// bandwidth; evicting it before use wastes the prefetch), then plain
	// LRU when the whole set is unconsumed prefetches.
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if c.protectPrefetched && set[i].prefetched && !set[i].prefUsed {
			continue
		}
		if victim == -1 || set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	if victim == -1 {
		for i := range set {
			if victim == -1 || set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
	}
	res := FillResult{Waiters: e.waiters}
	v := &set[victim]
	if v.valid && v.prefetched && !v.prefUsed {
		res.EvictedUnusedPrefetch = true
		res.EvictedPrefPC = v.prefPC
	}
	*v = cacheLine{tag: lineAddr, valid: true, lastUse: now}
	if e.prefetchOnly {
		v.prefetched = true
		v.prefPC = e.prefPC
		v.prefWarp = e.prefWarp
		v.prefIssueCycle = e.prefIssueCycle
		c.sink.PrefFill(now, c.sinkID, e.prefWarp, e.prefPC, lineAddr)
	}
	c.entryFree = append(c.entryFree, e) //caps:alloc-ok free-list capacity converges to the MSHR population
	return res, nil
}

// UnusedPrefetchedLines counts resident prefetched lines never touched by a
// demand access; called at end of run for the PrefUnusedAtEnd statistic.
func (c *Cache) UnusedPrefetchedLines() int64 {
	var n int64
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].prefetched && !set[i].prefUsed {
				n++
			}
		}
	}
	return n
}

// OutstandingMSHRs returns the number of in-flight misses.
func (c *Cache) OutstandingMSHRs() int { return c.mshrs.len() }

// PrefetchMSHRs returns the number of in-flight misses that were allocated
// by a prefetch and have not been joined by a demand request (occupancy of
// the prefetch request buffer).
func (c *Cache) PrefetchMSHRs() int { return c.prefetchOnly }

// UnconsumedPrefetchesInSet counts resident prefetched-but-unused lines in
// the set the address maps to. The LSU uses it to throttle prefetch
// admission so prefetched data cannot crowd reused demand lines out of a
// set (eviction protection would otherwise let it).
func (c *Cache) UnconsumedPrefetchesInSet(lineAddr uint64) int {
	set := c.sets[c.setIndex(lineAddr)]
	n := 0
	for i := range set {
		if set[i].valid && set[i].prefetched && !set[i].prefUsed {
			n++
		}
	}
	return n
}
