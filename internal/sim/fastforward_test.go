package sim

import (
	"testing"

	"caps/internal/config"
)

// Per-SM windows must never open with a bound of now+1 — a one-cycle
// window's first fast-path cycle would already be the wake cycle, so
// trySleep rejects it (window-length-1 no-op). This pins the boundary the
// comment in trySleep promises.
func TestTrySleepRejectsOneCycleWindow(t *testing.T) {
	cfg := tinyConfig()
	// LRR is unconditionally quiescent, so the window length alone decides.
	cfg.Scheduler = config.SchedLRR
	g, err := New(cfg, tinyKernel(2), WithIdleSkip())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sm := g.sms[0]
	// Launch a CTA so warps exist, then make every warp busy until cycle
	// now+1: issueBound reports bound 1, which trySleep must reject.
	sm.LaunchCTA(0, 0)
	for i := range sm.warps {
		w := &sm.warps[i]
		if !w.active {
			continue
		}
		w.busyUntil = 1
		sm.regate(w)
	}
	sm.trySleep(0)
	if sm.issueIdleUntil > 1 || sm.idleUntil > 1 {
		t.Errorf("trySleep cached a one-cycle window: issueIdleUntil=%d idleUntil=%d, want none",
			sm.issueIdleUntil, sm.idleUntil)
	}
	// A two-cycle bound is worth caching.
	for i := range sm.warps {
		w := &sm.warps[i]
		if !w.active {
			continue
		}
		w.busyUntil = 2
		sm.regate(w)
	}
	sm.trySleep(0)
	if sm.issueIdleUntil != 2 {
		t.Errorf("trySleep rejected a two-cycle window: issueIdleUntil=%d, want 2", sm.issueIdleUntil)
	}
}
