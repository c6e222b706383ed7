package sim

import (
	"encoding/binary"
	"hash"
)

// stateHasher is implemented by schedulers and prefetchers that carry
// architectural state worth folding into the determinism hash (TwoLevel's
// queues, CAPS's PerCTA/DIST tables). Stateless baselines need nothing.
type stateHasher interface {
	HashState(h hash.Hash64)
}

// HashState folds the SM's architectural state into h for the determinism
// harness: every warp context, the LSU/prefetch/store queues, and — when
// they expose it — the scheduler's and prefetcher's internal state. The L1
// is hashed separately (Cache.HashState); together they make the periodic
// checkpoint sensitive to any divergence in core-side state, not just the
// end-of-run counters.
func (sm *SM) HashState(h hash.Hash64) {
	// Window cycles the GPU skipped are settled first, and the stall
	// replay defers scheduler cursor movement (see stallTicks); fold the
	// cursor's true position, not its lazy one.
	sm.settle(*sm.clock)
	sm.flushStallTicks()
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
	for i := range sm.warps {
		w := &sm.warps[i]
		word(uint64(w.pc))
		word(uint64(w.ctaID))
		word(uint64(w.outstanding))
		word(uint64(w.busyUntil))
		word(uint64(w.loopDepth))
		flag(w.active)
		flag(w.finished)
		flag(w.waitLoad)
		flag(w.atBarrier)
		for _, it := range w.iterCount {
			word(uint64(it))
		}
		for d := 0; d < w.loopDepth; d++ {
			word(uint64(w.loopStack[d].bodyStart))
			word(uint64(w.loopStack[d].remaining))
		}
	}
	word(uint64(len(sm.lsuQ)))
	for _, g := range sm.lsuQ {
		word(uint64(g.warp.slot))
		word(uint64(g.idx))
		word(uint64(g.pc))
		for _, a := range g.addrs {
			word(a)
		}
	}
	word(uint64(len(sm.prefQ)))
	for _, c := range sm.prefQ {
		word(c.Addr)
		word(uint64(c.PC))
		word(uint64(c.TargetWarpSlot))
		word(uint64(c.TargetCTAID))
		word(uint64(c.GenCycle))
	}
	word(uint64(len(sm.storeQ)))
	for _, r := range sm.storeQ {
		word(r.LineAddr)
	}
	if sh, ok := sm.sched.(stateHasher); ok {
		sh.HashState(h)
	}
	if sh, ok := sm.pref.(stateHasher); ok {
		sh.HashState(h)
	}
}
