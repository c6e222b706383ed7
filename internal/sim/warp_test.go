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

// TestWarpEligibility drives a warp through each blocking state with the
// gate's setter and checks what the scheduler's view reads off the gate.
func TestWarpEligibility(t *testing.T) {
	g, err := New(tinyConfig(), tinyKernel(1))
	if err != nil {
		t.Fatal(err)
	}
	sm := g.sms[0]
	w := &sm.warps[0]
	sm.nowCache = 10
	if !sm.Eligible(0) || sm.Blocked(0) {
		t.Fatal("fresh warp should be eligible")
	}
	w.busyUntil = 15
	sm.regate(w)
	if sm.Eligible(0) || sm.Blocked(0) {
		t.Error("busy warp must be ineligible but not blocked")
	}
	sm.nowCache = 15
	if !sm.Eligible(0) {
		t.Error("warp should be eligible once busyUntil passes")
	}
	sm.nowCache = 20
	for _, tc := range []struct {
		name string
		set  func(bool)
	}{
		{"load-blocked", func(b bool) { w.waitLoad = b }},
		{"barrier-blocked", func(b bool) { w.atBarrier = b }},
		{"finished", func(b bool) { w.finished = b }},
		{"inactive", func(b bool) { w.active = !b }},
	} {
		tc.set(true)
		sm.regate(w)
		if sm.Eligible(0) || !sm.Blocked(0) {
			t.Errorf("%s warp must be ineligible and blocked", tc.name)
		}
		tc.set(false)
		sm.regate(w)
		if !sm.Eligible(0) {
			t.Errorf("warp no longer %s should be eligible again", tc.name)
		}
	}
	// The one-CTA grid launches slots 0 and 1 only.
	if last := len(sm.warps) - 1; last < 2 || !sm.Blocked(last) {
		t.Error("a never-launched slot must read as blocked")
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
