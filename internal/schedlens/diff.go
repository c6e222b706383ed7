package schedlens

import "caps/internal/lens"

// Thresholds gate a scheduler-profile comparison (the capsprof sched-diff
// gate). A regression is reported only past the threshold for its
// dimension; zero values select the defaults. Scheduler behaviour is
// deterministic, so the defaults are tight — these dimensions only move
// when the simulated machine moves.
type Thresholds struct {
	// EffectivenessAbs flags the leading-warp effectiveness (fraction of
	// anchored candidates seeded by the designated leading warp) dropping
	// by more than this (absolute points).
	EffectivenessAbs float64
	// PromotedAbs flags the PAS leading-promoted fraction of refills
	// dropping by more than this.
	PromotedAbs float64
	// CTAHitAbs flags the CAP table hit rate dropping by more than this.
	CTAHitAbs float64
	// DistHitAbs flags the DIST table hit rate dropping by more than this.
	DistHitAbs float64
	// BalanceAbs flags the per-SM CTA-retire balance (normalized entropy)
	// dropping by more than this.
	BalanceAbs float64
}

func (t Thresholds) withDefaults() Thresholds {
	t.EffectivenessAbs = lens.Or(t.EffectivenessAbs, 0.02)
	t.PromotedAbs = lens.Or(t.PromotedAbs, 0.02)
	t.CTAHitAbs = lens.Or(t.CTAHitAbs, 0.02)
	t.DistHitAbs = lens.Or(t.DistHitAbs, 0.02)
	t.BalanceAbs = lens.Or(t.BalanceAbs, 0.05)
	return t
}

// Diff compares two scheduler profiles of the same benchmark and returns
// the regressions past the thresholds. Only drops gate (an improvement in
// any dimension passes); dimensions absent on either side — no anchored
// candidates under a baseline prefetcher, no PAS refills under LRR — are
// skipped rather than treated as a regression to zero.
func Diff(base, cur *Profile, t Thresholds) []lens.Regression {
	t = t.withDefaults()
	var regs []lens.Regression

	if base.LeadingWarp.Anchored > 0 && cur.LeadingWarp.Anchored > 0 {
		regs = lens.Drop(regs, "leading", "leading-warp effectiveness",
			base.LeadingWarp.Effectiveness, cur.LeadingWarp.Effectiveness, t.EffectivenessAbs)
	}
	bp, cp := base.Picks, cur.Picks
	if bp.Promotes > 0 && cp.Promotes > 0 {
		regs = lens.Drop(regs, "picks", "leading-promoted fraction of refills",
			bp.LeadingPromotedFrac, cp.LeadingPromotedFrac, t.PromotedAbs)
	}
	bt, ct := base.Table, cur.Table
	if len(bt.Ops) > 0 && len(ct.Ops) > 0 {
		regs = lens.Drop(regs, "table", "CAP (per-CTA) hit rate", bt.CTAHitRate, ct.CTAHitRate, t.CTAHitAbs)
		regs = lens.Drop(regs, "table", "DIST hit rate", bt.DistHitRate, ct.DistHitRate, t.DistHitAbs)
	}
	if base.Timelines.Retires > 0 && cur.Timelines.Retires > 0 {
		regs = lens.Drop(regs, "balance", "per-SM CTA-retire balance",
			base.Timelines.Balance, cur.Timelines.Balance, t.BalanceAbs)
	}
	return regs
}
