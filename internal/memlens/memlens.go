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
// it defines that CTA's base address θ for the PC.
type anchor struct {
	warp int32
	addr uint64
}

// pcState accumulates one load PC's address-structure and prefetch
// timeliness evidence.
type pcState struct {
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
	anchorByCTA  map[int32]anchor
	truncAnchors int64
	residual     [lens.Buckets]int64 // log2 |addr - predicted| of unexplained obs

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
// tracked-line map: 64K byte-counters against ≤maxTracked (4096) live
// keys keeps the expected load per slot at 1/16, so almost every
// untracked access resolves with one multiply and one byte load instead
// of a map probe — the map probe was the collector's single largest cost.
const reuseFilterSlots = 1 << 16

// slot hashes the key into the filter (Fibonacci hashing on the line
// address with the track folded in; top 16 bits).
func (k lineKey) slot() uint32 {
	h := (k.line ^ (uint64(uint16(k.track)) << 48)) * 0x9E3779B97F4A7C15
	return uint32(h >> 48)
}

// reuseLevel is one cache level's reuse-distance sampler: a deterministic
// subset of accessed lines is tracked and the access-count interval to the
// next touch of the same line is histogrammed.
type reuseLevel struct {
	accesses []int64 // per-track running access index
	tracked  map[lineKey]int64
	filter   []uint8 // counting filter over tracked keys; 0 ⇒ definitely absent
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
	}
}

func (r *reuseLevel) fold(track int16, line uint64) {
	if int(track) < 0 || int(track) >= len(r.accesses) {
		return
	}
	r.accesses[track]++
	idx := r.accesses[track]
	k := lineKey{track: track, line: line}
	slot := k.slot()
	if r.filter[slot] != 0 {
		if at, ok := r.tracked[k]; ok {
			r.reused++
			r.hist.Observe(idx - at)
			delete(r.tracked, k) // one-shot: first reuse closes the observation
			// A slot saturated at 255 stays put: its delete history is
			// unknowable, and an overstated count only costs a map probe.
			if r.filter[slot] < 255 {
				r.filter[slot]--
			}
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
	if r.filter[slot] < 255 {
		r.filter[slot]++
	}
}

// bankStat is one (channel, bank) row-buffer tally.
type bankStat struct {
	hits, misses int64
}

// Collector is the streaming memory-hierarchy profiler. Attach it before
// the first simulated cycle (sim.WithMemLens), Build its Profile after the run
// and Validate that against the run's statistics; internal/lenses does all
// three. It implements obs.StreamFilter to decline the cycle-class stream,
// so the sink never constructs per-cycle events on its behalf.
type Collector struct {
	cfg Config

	pcs      map[uint32]*pcState
	truncPCs int64
	// One-entry pcLedger cache: static loads cluster on a handful of hot
	// PCs, and every load/prefetch event starts with the same lookup.
	lastPC  uint32
	lastPCS *pcState

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
		pref:    make(map[prefKey]prefLine, maxInPref),
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
var _ obs.StreamFilter = (*Collector)(nil)

// WantsCycleClass opts out of the per-SM-per-cycle class stream: memlens
// needs none of it, and subscribing would force the executor to keep
// constructing it.
func (c *Collector) WantsCycleClass() bool { return false }

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

// pcLedger returns the state for a load PC, or nil once the cap is hit.
func (c *Collector) pcLedger(pc uint32) *pcState {
	if c.lastPCS != nil && c.lastPC == pc {
		return c.lastPCS
	}
	if s, ok := c.pcs[pc]; ok {
		c.lastPC, c.lastPCS = pc, s
		return s
	}
	if len(c.pcs) >= maxPCs {
		c.truncPCs++
		return nil
	}
	s := &pcState{anchorByCTA: make(map[int32]anchor)} //caps:alloc-ok bounded by maxPCs; kernels have a handful of static loads
	c.pcs[pc] = s
	c.lastPC, c.lastPCS = pc, s
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
	a, ok := s.anchorByCTA[e.CTA]
	if !ok {
		if len(s.anchorByCTA) >= maxAnchors {
			s.truncAnchors++
			return
		}
		s.anchorByCTA[e.CTA] = anchor{warp: int32(e.Val), addr: e.Addr} //caps:alloc-ok bounded by maxAnchors per PC
		s.anchors++
		return
	}
	dw := e.Val - int64(a.warp)
	if dw == 0 {
		// Same warp re-issuing the load (loop iteration): the per-iteration
		// stride is a different axis than Δ; re-anchor so iteration i's
		// warps are compared against each other.
		s.anchorByCTA[e.CTA] = anchor{warp: int32(e.Val), addr: e.Addr}
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
