// Package memlens folds the obs event stream into a memory-hierarchy
// profile: per-load-PC address structure (how much of the access pattern a
// θ(CTA) + Δ·warpInCTA decomposition explains — the paper's Fig. 6
// observation as a measured artifact), prefetch timeliness (issue→fill and
// fill→first-use latency with accurate/late/early/useless classification),
// reuse-distance histograms per cache level, and DRAM/interconnect
// locality (row-buffer hit rates per bank, bank spread, queue-depth
// percentiles). Like internal/profile it is a streaming obs.Consumer with
// bounded memory: a 30M-cycle run is folded online, never buffered.
package memlens

import (
	"math/bits"

	"caps/internal/config"
	"caps/internal/lens"
	"caps/internal/obs"
)

// Bounds on the collector's ledger maps. Past a cap new keys are counted
// as truncated instead of growing without bound (maxLedgers idiom from
// internal/profile); the exact reconciliation counters keep counting
// regardless, so Profile.Validate is unaffected by truncation.
const (
	maxPCs     = 4096 // distinct load PCs
	maxAnchors = 4096 // per-PC CTA anchor observations
	maxInPref  = 8192 // tracked in-flight/resident prefetched lines
	maxTracked = 4096 // sampled lines per cache level awaiting reuse
)

// reuseSampleEvery is the deterministic sampling stride for reuse-distance
// tracking: every Nth access per track whose line is not already tracked
// starts a reuse observation. Counter-based, so two runs of the same
// workload sample identical lines.
const reuseSampleEvery = 64

// anchor is the first (warpInCTA, addr) observation of a (PC, CTA) pair:
// it defines that CTA's base address θ for the PC. set marks a slot of the
// CTA-indexed table that holds one.
type anchor struct {
	warp int32
	set  bool
	addr uint64
}

// denseCTAs bounds the CTA ids a PC's anchor table indexes. The simulator
// stamps ids in [0, NumCTAs), and grids have a few thousand CTAs; an id
// outside [0, denseCTAs) is counted as a truncated anchor.
const denseCTAs = 1 << 16

// pcState accumulates one load PC's address-structure and prefetch
// timeliness evidence.
type pcState struct {
	pc uint32

	// Address structure. Every non-indirect observation after a CTA's
	// anchor is tested against addr == θ(CTA) + Δ·(warpInCTA - anchorWarp);
	// Δ is the majority vote over the implied per-observation strides
	// (Boyer-Moore, so the state is two words regardless of stream length).
	obs          int64
	indirect     int64
	anchors      int64
	explained    int64
	unexplained  int64
	delta        int64
	deltaVotes   int64
	truncAnchors int64
	residual     [lens.Buckets]int64 // log2 |addr - predicted| of unexplained obs

	// byCTA is the CTA-indexed anchor table, grown on demand, and held
	// counts the anchors it holds against maxAnchors.
	byCTA []anchor
	held  int

	// Prefetch timeliness per PC.
	prefAdmits   int64
	prefFills    int64
	prefConsumes int64
	prefLates    int64
	prefEarly    int64
	useDistSum   int64 // Σ issue→use distance over consumes
}

// prefLine tracks one outstanding prefetched line from admission to
// consumption (or early eviction) for the timeliness histograms.
type prefLine struct {
	pc         uint32
	admitCycle int64
	fillCycle  int64 // 0 until the fill lands
}

// prefKey identifies an outstanding prefetch: the line lives in one SM's
// L1, and two SMs can legitimately prefetch the same line address.
type prefKey struct {
	sm   int16
	addr uint64
}

// lineKey identifies a cache line within one track (SM for L1, partition
// for L2) for reuse tracking.
type lineKey struct {
	track int16
	line  uint64
}

// reuseFilterSlots sizes the counting presence filter in front of the
// tracked-line map: each tracked key marks two of 64K slots, so with
// ≤maxTracked (4096) live keys at most one slot in eight is marked and an
// untracked line finds both its slots marked about one time in 70 (one in
// 16 with a single slot), resolving almost every access with one multiply
// and two bit tests instead of a map probe — the map probe was the
// collector's single largest cost. The tests read an 8 KiB bitmap of the
// non-zero slots, which stays in the host's L1 cache where the 64 KiB of
// byte counters behind it would not.
const reuseFilterSlots = 1 << 16

// slots hashes the key to its two filter slots (Fibonacci hashing on the
// line address with the track folded in; the top two 16-bit fields).
func (k lineKey) slots() (uint32, uint32) {
	h := (k.line ^ (uint64(uint16(k.track)) << 48)) * 0x9E3779B97F4A7C15
	return uint32(h >> 48), uint32(h>>32) & (reuseFilterSlots - 1)
}

// reuseLevel is one cache level's reuse-distance sampler: a deterministic
// subset of accessed lines is tracked and the access-count interval to the
// next touch of the same line is histogrammed.
type reuseLevel struct {
	accesses []int64 // per-track running access index
	tracked  map[lineKey]int64
	filter   []uint8  // counting filter over tracked keys' slots, saturating at 255
	nonzero  []uint64 // one bit per filter slot, set while it counts a key
	sampled  int64
	reused   int64
	trunc    int64
	hist     lens.Hist
}

func newReuseLevel(tracks int) reuseLevel {
	return reuseLevel{
		accesses: make([]int64, tracks),
		tracked:  make(map[lineKey]int64, maxTracked),
		filter:   make([]uint8, reuseFilterSlots),
		nonzero:  make([]uint64, reuseFilterSlots/64),
	}
}

func (r *reuseLevel) fold(track int16, line uint64) {
	if int(track) < 0 || int(track) >= len(r.accesses) {
		return
	}
	r.accesses[track]++
	idx := r.accesses[track]
	k := lineKey{track: track, line: line}
	s1, s2 := k.slots()
	if r.marked(s1) && r.marked(s2) {
		if at, ok := r.tracked[k]; ok {
			r.reused++
			r.hist.Observe(idx - at)
			delete(r.tracked, k) // one-shot: first reuse closes the observation
			r.unmark(s1)
			r.unmark(s2)
			return
		}
	}
	if idx%reuseSampleEvery != 0 {
		return
	}
	if len(r.tracked) >= maxTracked {
		r.trunc++
		return
	}
	r.sampled++
	r.tracked[k] = idx //caps:alloc-ok bounded by maxTracked; slots recycle on reuse
	r.mark(s1)
	r.mark(s2)
}

// marked reports whether filter slot s counts a tracked key.
func (r *reuseLevel) marked(s uint32) bool { return r.nonzero[s/64]&(1<<(s%64)) != 0 }

// mark counts one more tracked key in slot s.
func (r *reuseLevel) mark(s uint32) {
	if r.filter[s] < 255 {
		r.filter[s]++
	}
	r.nonzero[s/64] |= 1 << (s % 64)
}

// unmark counts one tracked key out of slot s. A slot saturated at 255
// stays put: its delete history is unknowable, and an overstated count
// only costs a map probe.
func (r *reuseLevel) unmark(s uint32) {
	if n := r.filter[s]; n < 255 {
		r.filter[s] = n - 1
		if n == 1 {
			r.nonzero[s/64] &^= 1 << (s % 64)
		}
	}
}

// bankStat is one (channel, bank) row-buffer tally.
type bankStat struct {
	hits, misses int64
}

// Collector is the streaming memory-hierarchy profiler. Attach it before
// the first simulated cycle (sim.WithConsumer), Build its Profile after the run
// and Validate that against the run's statistics; internal/lenses does all
// three. Its obs.KindFilter declines the cycle-class stream among others,
// so the sink never constructs per-cycle events on its behalf.
type Collector struct {
	cfg Config

	pcs      map[uint32]*pcState
	truncPCs int64
	// pcCache is a direct-mapped cache in front of pcs: kernels have a
	// handful of static loads, every load and prefetch event starts with
	// this lookup, and the events of different PCs interleave.
	pcCache [pcCacheSlots]*pcState

	pref        map[prefKey]prefLine
	truncPref   int64
	admits      int64
	fills       int64
	consumes    int64
	lates       int64
	earlyEvicts int64
	issueToFill lens.Hist
	fillToUse   lens.Hist
	issueToUse  lens.Hist

	l1Reuse reuseLevel
	l2Reuse reuseLevel

	banks     []bankStat // [channel*BanksPerChannel + bank]
	rowHits   int64
	rowMisses int64
	queues    [obs.NumQueueKinds]lens.Hist

	// Exact reconciliation tallies (Profile.Validate vs stats.Sim). The
	// pref dimension splits demand from prefetch requests.
	l1Access [2][obs.NumAccessClasses]int64
	l2Access [2][obs.NumAccessClasses]int64
	loads    int64
}

// Config sizes the collector for one GPU.
type Config struct {
	SMs        int
	Partitions int
	Channels   int
	Banks      int // banks per channel
}

// NewCollector builds a collector sized for the machine.
func NewCollector(cfg Config) *Collector {
	cfg.SMs, cfg.Partitions = max(cfg.SMs, 0), max(cfg.Partitions, 0)
	cfg.Channels, cfg.Banks = max(cfg.Channels, 0), max(cfg.Banks, 0)
	return &Collector{
		cfg:     cfg,
		pcs:     make(map[uint32]*pcState),
		pref:    make(map[prefKey]prefLine),
		l1Reuse: newReuseLevel(cfg.SMs),
		l2Reuse: newReuseLevel(cfg.Partitions),
		banks:   make([]bankStat, cfg.Channels*cfg.Banks),
	}
}

// ForConfig builds a collector sized for a GPU configuration.
func ForConfig(cfg config.GPUConfig) *Collector {
	return NewCollector(Config{
		SMs:        cfg.NumSMs,
		Partitions: cfg.NumPartitions,
		Channels:   cfg.DRAM.Channels,
		Banks:      cfg.DRAM.BanksPerChannel,
	})
}

var _ obs.Consumer = (*Collector)(nil)
var _ obs.KindFilter = (*Collector)(nil)

// WantsKind implements obs.KindFilter: the sink drops the collector from
// the dispatch lists of every kind the Consume switch would discard. A
// kind no attached consumer wants is dead and costs only its counter, so
// declining reservation fails (EvResFail, which outnumber every folded
// kind combined on cache-thrashing benchmarks) spares the run building
// them at all, not just the interface call per event.
func (c *Collector) WantsKind(k obs.Kind) bool {
	switch k {
	case obs.EvLoadIssue, obs.EvMemAccess,
		obs.EvPrefAdmit, obs.EvPrefFill, obs.EvPrefConsume,
		obs.EvPrefLate, obs.EvPrefEarlyEvict,
		obs.EvRowHit, obs.EvRowMiss, obs.EvQueueSample:
		return true
	}
	return false
}

// pcCacheSlots sizes Collector.pcCache; the simulator numbers load PCs
// from 1, so kernels with up to this many static loads never miss it.
const pcCacheSlots = 256

// pcLedger returns the state for a load PC, or nil once the cap is hit.
func (c *Collector) pcLedger(pc uint32) *pcState {
	slot := &c.pcCache[pc%pcCacheSlots]
	if s := *slot; s != nil && s.pc == pc {
		return s
	}
	s, ok := c.pcs[pc]
	if !ok {
		if len(c.pcs) >= maxPCs {
			c.truncPCs++
			return nil
		}
		s = &pcState{pc: pc} //caps:alloc-ok bounded by maxPCs; kernels have a handful of static loads
		c.pcs[pc] = s
	}
	*slot = s
	return s
}

// Consume implements obs.Consumer. Every branch is O(1): map lookups on
// bounded maps, fixed-size histogram increments.
//
//caps:hotpath
func (c *Collector) Consume(e obs.Event) {
	switch e.Kind {
	case obs.EvLoadIssue:
		c.loads++
		c.foldLoad(e)
	case obs.EvMemAccess:
		c.foldAccess(e)
	case obs.EvPrefAdmit:
		c.admits++
		k := prefKey{sm: e.Track, addr: e.Addr}
		if len(c.pref) < maxInPref {
			c.pref[k] = prefLine{pc: e.PC, admitCycle: e.Cycle} //caps:alloc-ok bounded by maxInPref; slots recycle on consume/evict
		} else if _, ok := c.pref[k]; ok {
			// At the cap, a re-admit of a tracked line still refreshes it —
			// only genuinely new lines are turned away.
			c.pref[k] = prefLine{pc: e.PC, admitCycle: e.Cycle}
		} else {
			c.truncPref++
		}
		if s := c.pcLedger(e.PC); s != nil {
			s.prefAdmits++
		}
	case obs.EvPrefFill:
		c.fills++
		k := prefKey{sm: e.Track, addr: e.Addr}
		if ln, ok := c.pref[k]; ok && ln.fillCycle == 0 {
			ln.fillCycle = e.Cycle
			c.pref[k] = ln
			c.issueToFill.Observe(e.Cycle - ln.admitCycle)
		}
		if s := c.pcLedger(e.PC); s != nil {
			s.prefFills++
		}
	case obs.EvPrefConsume:
		c.consumes++
		c.issueToUse.Observe(e.Val)
		k := prefKey{sm: e.Track, addr: e.Addr}
		if ln, ok := c.pref[k]; ok {
			if ln.fillCycle > 0 {
				c.fillToUse.Observe(e.Cycle - ln.fillCycle)
			}
			delete(c.pref, k)
		}
		if s := c.pcLedger(e.PC); s != nil {
			s.prefConsumes++
			s.useDistSum += e.Val
		}
	case obs.EvPrefLate:
		c.lates++
		if s := c.pcLedger(e.PC); s != nil {
			s.prefLates++
		}
	case obs.EvPrefEarlyEvict:
		c.earlyEvicts++
		delete(c.pref, prefKey{sm: e.Track, addr: e.Addr})
		if s := c.pcLedger(e.PC); s != nil {
			s.prefEarly++
		}
	case obs.EvRowHit:
		c.rowHits++
		if i := int(e.Track)*c.cfg.Banks + int(e.Arg); i >= 0 && i < len(c.banks) {
			c.banks[i].hits++
		}
	case obs.EvRowMiss:
		c.rowMisses++
		if i := int(e.Track)*c.cfg.Banks + int(e.Arg); i >= 0 && i < len(c.banks) {
			c.banks[i].misses++
		}
	case obs.EvQueueSample:
		if int(e.Arg) < int(obs.NumQueueKinds) {
			c.queues[e.Arg].Observe(e.Val)
		}
	}
}

// foldLoad runs the online θ/Δ decomposition test for one load issue.
func (c *Collector) foldLoad(e obs.Event) {
	s := c.pcLedger(e.PC)
	if s == nil {
		return
	}
	s.obs++
	if e.Arg == 1 { // indirect: address depends on loaded data, no affine model
		s.indirect++
		return
	}
	a := s.anchorOf(e.CTA)
	if a == nil {
		if s.held >= maxAnchors || uint32(e.CTA) >= denseCTAs {
			s.truncAnchors++
			return
		}
		s.held++
		*s.newAnchor(e.CTA) = anchor{warp: int32(e.Val), set: true, addr: e.Addr} //caps:alloc-ok bounded by maxAnchors per PC
		s.anchors++
		return
	}
	dw := e.Val - int64(a.warp)
	if dw == 0 {
		// Same warp re-issuing the load (loop iteration): the per-iteration
		// stride is a different axis than Δ; re-anchor so iteration i's
		// warps are compared against each other.
		a.addr = e.Addr
		s.anchors++
		return
	}
	da := int64(e.Addr) - int64(a.addr)
	if s.deltaVotes == 0 {
		// No established Δ to test against: the observation only nominates
		// its implied stride as the candidate (Boyer-Moore seed). Testing
		// against a Δ voted in by the same observation would trivially
		// explain any divisible stream.
		if da%dw == 0 {
			s.delta, s.deltaVotes = da/dw, 1
		}
		return
	}
	predicted := int64(a.addr) + s.delta*dw
	if int64(e.Addr) == predicted {
		s.explained++
		s.deltaVotes++
		return
	}
	if da%dw == 0 {
		// Mismatch with an implied stride of its own: vote against Δ.
		if da/dw == s.delta {
			s.deltaVotes++
		} else {
			s.deltaVotes--
		}
	}
	s.unexplained++
	r := int64(e.Addr) - predicted
	if r < 0 {
		r = -r
	}
	s.residual[bits.Len64(uint64(r))]++
}

// anchorOf returns cta's anchor, or nil when the PC has none for it.
func (s *pcState) anchorOf(cta int32) *anchor {
	if uint32(cta) < uint32(len(s.byCTA)) {
		if a := &s.byCTA[cta]; a.set {
			return a
		}
	}
	return nil
}

// newAnchor returns the empty slot for the first anchor of cta, an id in
// [0, denseCTAs), growing the table (at least doubling it, up to
// denseCTAs) to cover it.
func (s *pcState) newAnchor(cta int32) *anchor {
	if int(cta) >= len(s.byCTA) {
		grown := make([]anchor, min(max(int(cta)+1, 2*len(s.byCTA), 64), denseCTAs))
		copy(grown, s.byCTA)
		s.byCTA = grown
	}
	return &s.byCTA[cta]
}

// foldAccess routes one accepted cache access to its level's reuse sampler
// and reconciliation tally.
func (c *Collector) foldAccess(e obs.Event) {
	class, pref := obs.UnpackAccess(e.Arg)
	if class >= obs.NumAccessClasses {
		return
	}
	p := 0
	if pref {
		p = 1
	}
	switch e.Dom {
	case obs.DomSM:
		c.l1Access[p][class]++
		c.l1Reuse.fold(e.Track, e.Addr)
	case obs.DomPart:
		c.l2Access[p][class]++
		// Stores bypass the L2 lookup (write-through no-allocate): they
		// count as accepted accesses but say nothing about line reuse.
		if class != obs.AccessStore {
			c.l2Reuse.fold(e.Track, e.Addr)
		}
	}
}
