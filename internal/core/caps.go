// Package core implements the paper's primary contribution: the CTA-Aware
// Prefetcher (CAP) with its PerCTA and DIST tables, the misprediction
// throttle, indirect-access exclusion, and the hardware cost model of
// Tables I and II. The companion Prefetch-Aware Scheduler (PAS) lives in
// internal/sched (it is a two-level scheduler variant); the simulator wires
// the two together when the "caps" prefetcher is selected.
package core

import (
	"encoding/binary"
	"hash"

	"caps/internal/config"
	"caps/internal/invariant"
	obslib "caps/internal/obs"
	"caps/internal/prefetch"
	"caps/internal/stats"
)

// distEntry is one DIST table row: the kernel-wide inter-warp stride of one
// load PC plus its misprediction counter (Table I: PC 4B, stride 4B,
// mispredict counter 1B). The DIST table doubles as the targeting filter:
// the paper targets at most four distinct loads per kernel, so a PC with no
// DIST slot is not prefetched at all.
type distEntry struct {
	pc         uint32
	valid      bool
	stride     int64
	hasStride  bool
	mispredict uint8
	disabled   bool // counter crossed the threshold: stop prefetching this PC
	lastUse    int64
}

// perCTAEntry is one PerCTA table row: the base-address vector the CTA's
// leading warp produced for one load PC (Table I: PC 4B, leading warp id
// 1B, 4×4B base address vector).
type perCTAEntry struct {
	pc        uint32
	valid     bool
	leadWarp  int      // warp-in-CTA index of the leading warp
	base      []uint64 // one base address per coalesced access
	iter      int64    // leading warp's iteration the bases belong to
	seen      uint64   // warps (by warp-in-CTA) that already executed this PC at iter
	issued    uint64   // warps a prefetch was already generated for at iter
	ctaID     int      // logical CTA id the bases belong to
	warpBase  int      // SM warp slot of this CTA's warp 0
	warpCount int
	lastUse   int64
}

// CAPS is the CTA-aware prefetcher. One instance serves one SM.
type CAPS struct {
	cfg config.GPUConfig
	st  *stats.Sim

	dist   []distEntry
	perCTA [][]perCTAEntry // [ctaSlot][entry]

	// Observability (nil-safe): DIST allocations and PerCTA fills land on
	// the owning SM's trace track.
	sink *obslib.Sink
	smID int

	// scratch is the candidate buffer OnLoad returns; the SM consumes it
	// synchronously (candidates are copied into the prefetch queue by
	// value), so one reused slice serves every call.
	scratch []prefetch.Candidate
}

// New builds a CAPS engine for one SM.
func New(cfg config.GPUConfig, st *stats.Sim) *CAPS {
	c := &CAPS{cfg: cfg, st: st}
	c.dist = make([]distEntry, cfg.PrefetchTableSize)
	c.perCTA = make([][]perCTAEntry, cfg.MaxCTAsPerSM)
	for i := range c.perCTA {
		c.perCTA[i] = make([]perCTAEntry, cfg.PrefetchTableSize)
	}
	return c
}

var _ prefetch.Prefetcher = (*CAPS)(nil)
var _ invariant.Checker = (*CAPS)(nil)

// AttachObs connects the prefetcher's table events to an observability sink;
// smID names the trace track (one CAPS instance serves one SM).
func (c *CAPS) AttachObs(sink *obslib.Sink, smID int) {
	c.sink = sink
	c.smID = smID
}

// CheckInvariants audits the hardware table bounds of Tables I and II: the
// DIST table and every PerCTA table hold exactly PrefetchTableSize entries
// (the paper's 4-entry budget), no PC is tracked twice within a table, and
// every leading-warp index fits the 64-bit seen/issued masks. The SM calls
// it once per cycle when invariant checking is enabled.
func (c *CAPS) CheckInvariants(now int64) error {
	if len(c.dist) != c.cfg.PrefetchTableSize {
		return invariant.Errorf("caps/dist", now, "DIST table holds %d entries, hardware budget is %d",
			len(c.dist), c.cfg.PrefetchTableSize)
	}
	// Duplicate scans below are quadratic on purpose: the tables hold 4
	// entries and this runs every cycle, so allocating a set would dominate.
	for i := range c.dist {
		e := &c.dist[i]
		if !e.valid {
			continue
		}
		for j := range c.dist[:i] {
			if c.dist[j].valid && c.dist[j].pc == e.pc {
				return invariant.Errorf("caps/dist", now, "PC %#x tracked by two DIST entries", e.pc)
			}
		}
	}
	if len(c.perCTA) != c.cfg.MaxCTAsPerSM {
		return invariant.Errorf("caps/percta", now, "%d PerCTA tables, want one per CTA slot (%d)",
			len(c.perCTA), c.cfg.MaxCTAsPerSM)
	}
	for slot, tbl := range c.perCTA {
		if len(tbl) != c.cfg.PrefetchTableSize {
			return invariant.Errorf("caps/percta", now, "PerCTA table for slot %d holds %d entries, hardware budget is %d",
				slot, len(tbl), c.cfg.PrefetchTableSize)
		}
		for i := range tbl {
			e := &tbl[i]
			if !e.valid {
				continue
			}
			for j := range tbl[:i] {
				if tbl[j].valid && tbl[j].pc == e.pc {
					return invariant.Errorf("caps/percta", now, "PC %#x tracked twice in slot %d's PerCTA table", e.pc, slot)
				}
			}
			if e.leadWarp < 0 || e.leadWarp >= 64 {
				return invariant.Errorf("caps/percta", now, "slot %d PC %#x: leading warp index %d outside the 64-warp mask",
					slot, e.pc, e.leadWarp)
			}
		}
	}
	return nil
}

// Name implements prefetch.Prefetcher.
func (c *CAPS) Name() string { return "caps" }

// OnCTALaunch implements prefetch.Prefetcher: a new CTA occupies the slot,
// so its PerCTA table starts empty.
func (c *CAPS) OnCTALaunch(ctaSlot int) {
	for i := range c.perCTA[ctaSlot] {
		e := &c.perCTA[ctaSlot][i]
		*e = perCTAEntry{base: e.base[:0]} // keep the base vector's capacity
	}
}

// OnMiss implements prefetch.Prefetcher (CAP does not trigger on misses).
func (c *CAPS) OnMiss(int64, uint64, uint32) []prefetch.Candidate { return nil }

// lookupOrAllocDist finds the PC's DIST entry, allocating one on first
// sight. A nil return means the PC is not targeted: the table is full of
// live striding loads (the paper's at-most-four-loads targeting limit).
func (c *CAPS) lookupOrAllocDist(now int64, pc uint32) *distEntry {
	var free *distEntry
	for i := range c.dist {
		e := &c.dist[i]
		if e.valid && e.pc == pc {
			e.lastUse = now
			c.sink.TableOp(now, c.smID, -1, pc, obslib.TableDistHit)
			return e
		}
		if free == nil && !e.valid {
			free = e
		}
	}
	reclaimed := false
	if free == nil {
		// Reclaim a shut-down entry; never evict a live striding load.
		for i := range c.dist {
			if c.dist[i].disabled {
				free = &c.dist[i]
				reclaimed = true
				break
			}
		}
	}
	if free == nil {
		c.sink.TableOp(now, c.smID, -1, pc, obslib.TableDistFull)
		return nil
	}
	*free = distEntry{pc: pc, valid: true, lastUse: now}
	c.sink.DistAlloc(now, c.smID, pc)
	if reclaimed {
		c.sink.TableOp(now, c.smID, -1, pc, obslib.TableDistReclaim)
	} else {
		c.sink.TableOp(now, c.smID, -1, pc, obslib.TableDistFill)
	}
	return free
}

func (c *CAPS) lookupPerCTA(ctaSlot int, pc uint32) *perCTAEntry {
	tbl := c.perCTA[ctaSlot]
	for i := range tbl {
		if tbl[i].valid && tbl[i].pc == pc {
			return &tbl[i]
		}
	}
	return nil
}

func (c *CAPS) insertPerCTA(now int64, obs *prefetch.Observation) *perCTAEntry {
	tbl := c.perCTA[obs.CTASlot]
	victim := 0
	for i := range tbl {
		if !tbl[i].valid {
			victim = i
			break
		}
		if tbl[i].lastUse < tbl[victim].lastUse {
			victim = i
		}
	}
	if tbl[victim].valid {
		// A live entry for another PC loses its slot: an aliasing collision
		// under the paper's four-entry CAP budget.
		c.sink.TableOp(now, c.smID, tbl[victim].ctaID, tbl[victim].pc, obslib.TableCTAEvict)
	}
	base := append(tbl[victim].base[:0], obs.Addrs...) //caps:alloc-ok base capacity is retained by the table row and bounded by PrefetchMaxAccesses
	tbl[victim] = perCTAEntry{
		pc:        obs.PC,
		valid:     true,
		leadWarp:  obs.WarpInCTA,
		base:      base,
		iter:      obs.Iter,
		seen:      1 << uint(obs.WarpInCTA),
		ctaID:     obs.CTAID,
		warpBase:  obs.CTAWarpBase,
		warpCount: obs.WarpsPerCTA,
		lastUse:   now,
	}
	c.sink.PerCTAFill(now, c.smID, obs.CTAID, obs.PC)
	c.sink.TableOp(now, c.smID, obs.CTAID, obs.PC, obslib.TableCTAFill)
	return &tbl[victim]
}

// OnLoad implements prefetch.Prefetcher: the full CAP algorithm of
// Section V-B, covering both generation scenarios of Section V-C.
// Every executed load passes through here (CAP/DIST table access).
//
//caps:hotpath
func (c *CAPS) OnLoad(obs *prefetch.Observation) []prefetch.Candidate {
	c.scratch = c.onLoad(obs, c.scratch[:0])
	return c.scratch
}

// onLoad is OnLoad with the candidate buffer threaded through: out must
// arrive empty and is returned (possibly regrown) so its capacity is kept.
//
//caps:shared-sync stats-reduce
func (c *CAPS) onLoad(obs *prefetch.Observation, out []prefetch.Candidate) []prefetch.Candidate {
	// Indirect accesses are detected by register-origin tracing and
	// excluded; loads with too many coalesced accesses are not targets.
	if obs.Indirect || len(obs.Addrs) == 0 || len(obs.Addrs) > c.cfg.PrefetchMaxAccesses {
		return out
	}
	c.st.PrefTableLookup++

	de := c.lookupOrAllocDist(obs.Now, obs.PC)
	if de == nil {
		return out // not one of the targeted loads
	}
	pe := c.lookupPerCTA(obs.CTASlot, obs.PC)
	if pe != nil {
		c.sink.TableOp(obs.Now, c.smID, pe.ctaID, pe.pc, obslib.TableCTAHit)
	}

	switch {
	case pe == nil:
		// First warp of this CTA to reach the PC: it becomes the CTA's
		// leading warp and registers the base-address vector.
		pe = c.insertPerCTA(obs.Now, obs)
		// Scenario 2 (Fig. 9b): the stride is already known from the
		// leading CTA, so this leading warp immediately enables
		// prefetches for all trailing warps of its own CTA.
		if de.hasStride && !de.disabled {
			out = c.generate(obs.Now, pe, de, out)
		}

	case obs.WarpInCTA == pe.leadWarp:
		if obs.Iter == pe.iter {
			// A replayed execution at the same iteration: nothing new.
			pe.lastUse = obs.Now
			return out
		}
		// The leading warp re-executed the load (next loop iteration):
		// refresh the base vector for the new iteration. Prefetches for
		// the new iteration go only to warps that executed the previous
		// one — warps further behind would receive data long before they
		// can consume it (it would be evicted or stale by then).
		looping := pe.seen
		pe.base = append(pe.base[:0], obs.Addrs...) //caps:alloc-ok base capacity is retained by the table row and bounded by PrefetchMaxAccesses
		pe.iter = obs.Iter
		pe.seen = 1 << uint(obs.WarpInCTA)
		pe.issued = 0
		pe.lastUse = obs.Now
		if de.hasStride && !de.disabled {
			out = c.generateMasked(obs.Now, pe, de, looping, out)
		}

	default:
		// A trailing warp of a CTA whose base is registered. Mark it as
		// seen first so generation never prefetches for this warp.
		pe.lastUse = obs.Now
		c.mark(pe, obs)
		dw := int64(obs.WarpInCTA - pe.leadWarp)
		if !de.hasStride {
			// Stride detection: all coalesced accesses must agree on a
			// single per-warp stride, otherwise the PC is not striding
			// and its PerCTA entry is invalidated (Section V-B).
			if pe.iter != obs.Iter {
				return out // leading warp is at a different iteration
			}
			stride, ok := strideBetween(pe.base, obs.Addrs, dw)
			if !ok {
				pe.valid = false
				c.sink.TableOp(obs.Now, c.smID, pe.ctaID, pe.pc, obslib.TableCTAInvalidate)
				return out
			}
			de.stride = stride
			de.hasStride = true
			de.mispredict = 0
			// Scenario 1 (Fig. 9a): the stride just became known;
			// traverse every CTA's PerCTA table and issue prefetches
			// for all their trailing warps.
			for slot := range c.perCTA {
				if spe := c.lookupPerCTA(slot, obs.PC); spe != nil {
					out = c.generate(obs.Now, spe, de, out)
				}
			}
			return out
		}

		// Verification: every demand fetch checks the address the
		// prefetcher would have predicted; mismatches bump the
		// misprediction counter and eventually shut the PC down.
		if pe.iter == obs.Iter {
			if predictsExactly(pe.base, obs.Addrs, dw, de.stride) {
				c.st.PrefVerifyOK++
				c.sink.TableOp(obs.Now, c.smID, pe.ctaID, pe.pc, obslib.TableVerifyOK)
			} else {
				c.st.PrefVerifyBad++
				c.sink.TableOp(obs.Now, c.smID, pe.ctaID, pe.pc, obslib.TableVerifyBad)
				if de.mispredict < 255 {
					de.mispredict++
				}
				if int(de.mispredict) > c.cfg.MispredictThreshold && !de.disabled {
					de.disabled = true
					c.sink.TableOp(obs.Now, c.smID, -1, pe.pc, obslib.TableDistDisable)
				}
			}
		}
	}
	return out
}

// mark records that the warp executed the PC at the entry's iteration.
func (c *CAPS) mark(pe *perCTAEntry, obs *prefetch.Observation) {
	if pe.valid && pe.iter == obs.Iter && obs.WarpInCTA < 64 {
		pe.seen |= 1 << uint(obs.WarpInCTA)
	}
}

// generate issues prefetches for every trailing warp of the entry's CTA
// that has neither executed the load at the current iteration nor been
// prefetched for already.
func (c *CAPS) generate(now int64, pe *perCTAEntry, de *distEntry, out []prefetch.Candidate) []prefetch.Candidate {
	return c.generateMasked(now, pe, de, ^uint64(0), out)
}

// generateMasked is generate restricted to warps in the allow mask.
func (c *CAPS) generateMasked(now int64, pe *perCTAEntry, de *distEntry, allow uint64, out []prefetch.Candidate) []prefetch.Candidate {
	for w := 0; w < pe.warpCount && w < 64; w++ {
		if w == pe.leadWarp {
			continue
		}
		bit := uint64(1) << uint(w)
		if allow&bit == 0 || pe.seen&bit != 0 || pe.issued&bit != 0 {
			continue
		}
		pe.issued |= bit
		dw := int64(w - pe.leadWarp)
		for _, b := range pe.base {
			//caps:alloc-ok scratch capacity converges to warps-per-CTA × coalesced width and is retained across calls
			out = append(out, prefetch.Candidate{
				Addr:           uint64(int64(b) + dw*de.stride),
				PC:             pe.pc,
				TargetWarpSlot: pe.warpBase + w,
				TargetCTAID:    pe.ctaID,
				GenCycle:       now,
				SeedWarp:       pe.leadWarp,
			})
		}
	}
	return out
}

// HashState folds the CAP tables — every DIST row and every PerCTA row,
// including base vectors and the seen/issued masks — into h for the
// determinism harness. Before this the state hash covered caches and
// counters only, so two runs whose CAP tables diverged mid-run but
// converged on memory traffic hashed identical; periodic checkpoints need
// the table state to localize that kind of divergence.
func (c *CAPS) HashState(h hash.Hash64) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			word(1)
		} else {
			word(0)
		}
	}
	for i := range c.dist {
		e := &c.dist[i]
		word(uint64(e.pc))
		flag(e.valid)
		word(uint64(e.stride))
		flag(e.hasStride)
		word(uint64(e.mispredict))
		flag(e.disabled)
		word(uint64(e.lastUse))
	}
	for _, tbl := range c.perCTA {
		for i := range tbl {
			e := &tbl[i]
			word(uint64(e.pc))
			flag(e.valid)
			word(uint64(e.leadWarp))
			word(uint64(len(e.base)))
			for _, b := range e.base {
				word(b)
			}
			word(uint64(e.iter))
			word(e.seen)
			word(e.issued)
			word(uint64(e.ctaID))
			word(uint64(e.warpBase))
			word(uint64(e.warpCount))
			word(uint64(e.lastUse))
		}
	}
}

// ForceDistStride overwrites the stride of the PC's DIST entry, allocating
// the entry if needed. It exists only so determinism tests can mutate CAP
// table state without touching any other machine state; the simulator never
// calls it.
func (c *CAPS) ForceDistStride(pc uint32, stride int64) {
	de := c.lookupOrAllocDist(0, pc)
	if de == nil {
		de = &c.dist[0]
		*de = distEntry{pc: pc, valid: true}
	}
	de.stride = stride
	de.hasStride = true
}

// strideBetween derives the per-warp stride from two base vectors dw warps
// apart; ok is false when the accesses disagree or dw is zero.
func strideBetween(base, addrs []uint64, dw int64) (int64, bool) {
	if dw == 0 || len(base) != len(addrs) {
		return 0, false
	}
	diff := int64(addrs[0]) - int64(base[0])
	if diff%dw != 0 {
		return 0, false
	}
	stride := diff / dw
	if stride == 0 {
		return 0, false
	}
	for i := 1; i < len(addrs); i++ {
		if int64(addrs[i])-int64(base[i]) != diff {
			return 0, false
		}
	}
	return stride, true
}

// predictsExactly checks whether base + dw·stride reproduces the demand
// addresses component by component.
func predictsExactly(base, addrs []uint64, dw, stride int64) bool {
	if len(base) != len(addrs) {
		return false
	}
	for i := range addrs {
		if int64(addrs[i]) != int64(base[i])+dw*stride {
			return false
		}
	}
	return true
}

func init() {
	prefetch.Register("caps", func(cfg config.GPUConfig, st *stats.Sim) prefetch.Prefetcher {
		return New(cfg, st)
	})
}
