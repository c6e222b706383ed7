// Package sim is the cycle-level GPU timing simulator: SMs with SIMT warp
// contexts, CTA dispatch (round-robin then demand-driven, Fig. 3), warp
// schedulers, a load/store unit in front of the per-SM L1, and the
// top-level clock loop that ties the SMs to the memory partitions.
package sim

import (
	"caps/internal/kernels"
)

// loopFrame is one active loop of a warp's program.
type loopFrame struct {
	bodyStart int // index of the first body instruction
	remaining int // iterations left including the current one
}

// warpState is one hardware warp context (slot) on an SM.
type warpState struct {
	slot      int
	ctaSlot   int
	ctaID     int
	ctaCoord  kernels.Dim3
	warpInCTA int

	active   bool
	finished bool

	pc        int
	loopStack []loopFrame
	loopDepth int
	iterCount []int64 // per-load dynamic execution counter

	busyUntil   int64 // compute/shared op completion
	outstanding int   // memory accesses in flight
	waitLoad    bool  // blocked until outstanding == 0
	atBarrier   bool
}

// reset prepares the slot for a newly dispatched CTA.
func (w *warpState) reset(ctaSlot, ctaID int, coord kernels.Dim3, warpInCTA, numLoads int) {
	w.ctaSlot = ctaSlot
	w.ctaID = ctaID
	w.ctaCoord = coord
	w.warpInCTA = warpInCTA
	w.active = true
	w.finished = false
	w.pc = 0
	w.loopStack = w.loopStack[:0]
	w.loopDepth = 0
	if cap(w.iterCount) < numLoads {
		w.iterCount = make([]int64, numLoads)
	} else {
		w.iterCount = w.iterCount[:numLoads]
		for i := range w.iterCount {
			w.iterCount[i] = 0
		}
	}
	w.busyUntil = 0
	w.outstanding = 0
	w.waitLoad = false
	w.atBarrier = false
}

// ctaState tracks one CTA slot on an SM.
type ctaState struct {
	active     bool
	ctaID      int
	coord      kernels.Dim3
	warpBase   int // first warp slot
	warpCount  int
	warpsLeft  int
	barrierCnt int

	// CTA lifetime phase marks (schedlens): dedup flags so each phase
	// event fires once per residency. Reset by LaunchCTA's struct
	// assignment; observer-only state, excluded from determinism hashes
	// (SM.HashState never folds ctaState).
	firstIssued bool
	baseReady   bool
	draining    bool
}
