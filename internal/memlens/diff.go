package memlens

import "caps/internal/lens"

// Thresholds gate a memory-profile comparison (the capsprof mem-diff
// gate). A regression is reported only past the threshold for its
// dimension; zero values select the defaults. Memory behavior is
// deterministic, so the defaults are tighter than the host-profile gate —
// these dimensions only move when the simulated machine moves.
type Thresholds struct {
	// ExplainedAbs flags the θ/Δ explained fraction dropping by more
	// than this (absolute points).
	ExplainedAbs float64
	// AccurateAbs flags the accurate-prefetch share of fills dropping by
	// more than this.
	AccurateAbs float64
	// RowHitAbs flags the DRAM row-buffer hit rate dropping by more
	// than this.
	RowHitAbs float64
	// ReuseFracAbs flags a level's sampled-reuse fraction dropping by
	// more than this.
	ReuseFracAbs float64
	// BankSpreadAbs flags the bank spread (normalized entropy) dropping
	// by more than this.
	BankSpreadAbs float64
}

func (t Thresholds) withDefaults() Thresholds {
	t.ExplainedAbs = lens.Or(t.ExplainedAbs, 0.02)
	t.AccurateAbs = lens.Or(t.AccurateAbs, 0.02)
	t.RowHitAbs = lens.Or(t.RowHitAbs, 0.05)
	t.ReuseFracAbs = lens.Or(t.ReuseFracAbs, 0.05)
	t.BankSpreadAbs = lens.Or(t.BankSpreadAbs, 0.05)
	return t
}

// Diff compares two memory profiles of the same benchmark and returns
// the regressions past the thresholds. Only drops gate (an improvement
// in any dimension passes); dimensions absent on either side — no
// prefetches, no DRAM traffic — are skipped rather than treated as a
// regression to zero.
func Diff(base, cur *Profile, t Thresholds) []lens.Regression {
	t = t.withDefaults()
	var regs []lens.Regression

	if base.AddrStructure.ExplainedFrac > 0 || cur.AddrStructure.ExplainedFrac > 0 {
		regs = lens.Drop(regs, "addr", "θ/Δ explained fraction",
			base.AddrStructure.ExplainedFrac, cur.AddrStructure.ExplainedFrac, t.ExplainedAbs)
	}
	if base.Timeliness.Fills > 0 && cur.Timeliness.Fills > 0 {
		regs = lens.Drop(regs, "timeliness", "accurate-prefetch share of fills",
			lens.Frac(base.Timeliness.Consumes, base.Timeliness.Fills), lens.Frac(cur.Timeliness.Consumes, cur.Timeliness.Fills), t.AccurateAbs)
	}
	if base.Locality.RowHits+base.Locality.RowMisses > 0 && cur.Locality.RowHits+cur.Locality.RowMisses > 0 {
		regs = lens.Drop(regs, "dram", "row-buffer hit rate",
			base.Locality.RowHitRate, cur.Locality.RowHitRate, t.RowHitAbs)
		regs = lens.Drop(regs, "dram", "bank spread",
			base.Locality.BankSpread, cur.Locality.BankSpread, t.BankSpreadAbs)
	}
	for _, br := range base.Reuse {
		for _, cr := range cur.Reuse {
			if br.Level == cr.Level && br.Sampled > 0 && cr.Sampled > 0 {
				regs = lens.Drop(regs, "reuse", br.Level+" sampled-reuse fraction",
					lens.Frac(br.Reused, br.Sampled), lens.Frac(cr.Reused, cr.Sampled), t.ReuseFracAbs)
			}
		}
	}
	return regs
}
