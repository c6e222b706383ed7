package sim

import (
	"testing"

	"caps/internal/kernels"
)

func TestWarpReset(t *testing.T) {
	w := warpState{slot: 7}
	w.outstanding = 3
	w.waitLoad = true
	w.atBarrier = true
	w.pc = 12
	w.loopStack = append(w.loopStack, loopFrame{bodyStart: 1, remaining: 2})
	w.loopDepth = 1
	w.finished = true

	w.reset(2, 99, kernels.Dim3{X: 1, Y: 2}, 3, 4)

	if w.slot != 7 {
		t.Error("reset must not change the hardware slot id")
	}
	if w.ctaSlot != 2 || w.ctaID != 99 || w.warpInCTA != 3 {
		t.Error("CTA identity not set")
	}
	if !w.active || w.finished {
		t.Error("reset warp must be active and unfinished")
	}
	if w.pc != 0 || w.loopDepth != 0 || w.outstanding != 0 || w.waitLoad || w.atBarrier {
		t.Error("execution state not cleared")
	}
	if len(w.iterCount) != 4 {
		t.Errorf("iterCount len = %d, want 4", len(w.iterCount))
	}
	for i, v := range w.iterCount {
		if v != 0 {
			t.Errorf("iterCount[%d] = %d, want 0", i, v)
		}
	}
}

func TestWarpResetReusesIterBuffer(t *testing.T) {
	w := warpState{}
	w.reset(0, 1, kernels.Dim3{}, 0, 8)
	w.iterCount[5] = 42
	buf := &w.iterCount[0]
	w.reset(0, 2, kernels.Dim3{}, 0, 4) // smaller load count
	if len(w.iterCount) != 4 {
		t.Fatalf("iterCount len = %d, want 4", len(w.iterCount))
	}
	if w.iterCount[0] != 0 {
		t.Error("reused buffer not zeroed")
	}
	if buf != &w.iterCount[0] {
		t.Error("buffer should be reused when capacity allows")
	}
}

func TestWarpEligibility(t *testing.T) {
	w := warpState{}
	w.reset(0, 0, kernels.Dim3{}, 0, 1)
	if !w.eligible(10) {
		t.Fatal("fresh warp should be eligible")
	}
	w.busyUntil = 15
	if w.eligible(10) {
		t.Error("busy warp must not be eligible")
	}
	if !w.eligible(15) {
		t.Error("warp should be eligible once busyUntil passes")
	}
	w.waitLoad = true
	if w.eligible(20) {
		t.Error("load-blocked warp must not be eligible")
	}
	w.waitLoad = false
	w.atBarrier = true
	if w.eligible(20) {
		t.Error("barrier-blocked warp must not be eligible")
	}
	w.atBarrier = false
	w.finished = true
	if w.eligible(20) {
		t.Error("finished warp must not be eligible")
	}
}

func TestGPUDoneSemantics(t *testing.T) {
	g, err := New(tinyConfig(), tinyKernel(4))
	if err != nil {
		t.Fatal(err)
	}
	if g.Done() {
		t.Fatal("freshly constructed GPU with work must not be done")
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if !g.Done() {
		t.Error("GPU must report done after Run drains the workload")
	}
	if g.Cycle() == 0 {
		t.Error("cycle counter never advanced")
	}
}
