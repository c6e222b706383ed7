package sim

import (
	"caps/internal/invariant"
	"caps/internal/sched"
)

// sanitizeStride is how many cycles apart the SM's O(warps) structural
// audit runs; it bounds detection latency, mirroring mem.deepAuditStride.
const sanitizeStride = 16

// checkInvariants is the SM's per-cycle sanitizer (enabled by
// config.GPUConfig.CheckInvariants). It audits every cycle-accurate
// property the paper's results rest on:
//
//   - the L1's MSHR and miss-queue accounting (delegated to mem.Cache),
//   - warp/CTA population counters against the warp contexts,
//   - waiting warps really have outstanding memory accesses, and every
//     warp's issue gate matches its context,
//   - the prefetch queue and its dedup index agree,
//   - two-level/PAS ready+pending queues partition the live warp set with
//     no duplicates, and leading-warp marks are unique per CTA,
//   - the CAP PerCTA/DIST tables respect the paper's 4-entry bounds
//     (via the invariant.Checker interface, so any prefetcher can opt in).
func (sm *SM) checkInvariants(now int64) error {
	comp := sm.sanComp
	if err := sm.l1.SanitizerErr(); err != nil {
		return err
	}
	// The checks below walk every warp context, the scheduler queues and
	// the prefetcher tables — O(warps) work that would dominate simulation
	// if run every cycle. They run on a fixed stride instead (the L1 poll
	// above stays per-cycle); corruption is still reported within
	// sanitizeStride cycles of introduction.
	if now < sm.sanNext {
		return nil
	}
	sm.sanNext = now + sanitizeStride

	live, ctas := 0, 0
	for i := range sm.warps {
		w := &sm.warps[i]
		if w.active && !w.finished {
			live++
		}
		if w.outstanding < 0 {
			return invariant.Errorf(comp, now, "warp slot %d has negative outstanding accesses (%d)", i, w.outstanding)
		}
		if w.waitLoad && w.outstanding == 0 {
			return invariant.Errorf(comp, now, "warp slot %d waits on memory with no outstanding access", i)
		}
		if want := gateOf(w); sm.gate[i] != want {
			return invariant.Errorf(comp, now, "warp slot %d issue gate %d disagrees with its context (%d)", i, sm.gate[i], want)
		}
	}
	if live != sm.liveWarps {
		return invariant.Errorf(comp, now, "liveWarps counter (%d) disagrees with warp contexts (%d live)", sm.liveWarps, live)
	}
	for i := range sm.ctas {
		if sm.ctas[i].active {
			ctas++
		}
	}
	if ctas != sm.activeCTAs {
		return invariant.Errorf(comp, now, "activeCTAs counter (%d) disagrees with CTA slots (%d active)", sm.activeCTAs, ctas)
	}

	if len(sm.prefQ) != len(sm.prefIn) {
		return invariant.Errorf(comp, now, "prefetch queue (%d) and dedup index (%d) diverged", len(sm.prefQ), len(sm.prefIn))
	}
	for _, c := range sm.prefQ {
		if !sm.prefIn[c.Addr] {
			return invariant.Errorf(comp, now, "queued prefetch for line %#x missing from the dedup index", c.Addr)
		}
	}

	if tl, ok := sm.sched.(*sched.TwoLevel); ok {
		registered := sm.sanSlots[:0]
		for i := range sm.warps {
			if sm.warps[i].active && !sm.warps[i].finished {
				registered = append(registered, i)
			}
		}
		sm.sanSlots = registered
		if err := tl.CheckInvariants(now, sm, registered); err != nil {
			return err
		}
		// Leading-warp marks must be unique per CTA: only the CTA's warp 0
		// (its warpBase slot) is ever marked leading.
		for i := range sm.ctas {
			cta := &sm.ctas[i]
			if !cta.active {
				continue
			}
			for w := 1; w < cta.warpCount; w++ {
				if tl.IsLeading(cta.warpBase + w) {
					return invariant.Errorf(comp, now,
						"CTA %d has a second leading-warp mark on slot %d (leading is slot %d)",
						cta.ctaID, cta.warpBase+w, cta.warpBase)
				}
			}
		}
	}

	if ch, ok := sm.pref.(invariant.Checker); ok {
		if err := ch.CheckInvariants(now); err != nil {
			return err
		}
	}
	return nil
}
