package hostprof

import (
	"fmt"
	"math"

	"caps/internal/lens"
)

// Thresholds gate a host-profile comparison, mirroring the profile.Diff
// perf gate: a regression is reported only past the threshold for its
// dimension. Zero values select the defaults.
type Thresholds struct {
	// WallFrac flags wall-clock growth beyond this fraction (0.25 = +25%).
	WallFrac float64
	// PhaseShareAbs flags a phase's share moving by more than this.
	PhaseShareAbs float64
	// UtilAbs flags mean worker utilization dropping by more than this.
	UtilAbs float64
}

func (t Thresholds) withDefaults() Thresholds {
	t.WallFrac = lens.Or(t.WallFrac, 0.25)
	t.PhaseShareAbs = lens.Or(t.PhaseShareAbs, 0.05)
	t.UtilAbs = lens.Or(t.UtilAbs, 0.10)
	return t
}

// Diff compares two host profiles of the same run shape and returns the
// regressions past the thresholds. Wall-clock comparisons are skipped
// when either side is zero or non-finite (a truncated or mis-clocked
// profile must not gate on a NaN ratio).
func Diff(base, cur *Profile, t Thresholds) []lens.Regression {
	t = t.withDefaults()
	var regs []lens.Regression

	bw, cw := float64(base.WallNS), float64(cur.WallNS)
	if finitePos(bw) && finitePos(cw) && cw > bw*(1+t.WallFrac) {
		regs = append(regs, lens.Regression{
			Dimension: "wall",
			Detail:    fmt.Sprintf("wall-clock grew %.1f%%", (cw/bw-1)*100),
			Base:      bw / 1e6,
			Cur:       cw / 1e6,
		})
	}

	bp := phaseShares(base)
	for _, ph := range cur.Phases {
		b, ok := bp[ph.Name]
		if !ok {
			continue
		}
		if d := ph.Share - b; math.Abs(d) > t.PhaseShareAbs {
			dir := "grew"
			if d < 0 {
				dir = "shrank"
			}
			regs = append(regs, lens.Regression{
				Dimension: "phase",
				Detail:    fmt.Sprintf("%s share %s %.1f points", ph.Name, dir, math.Abs(d)*100),
				Base:      b,
				Cur:       ph.Share,
			})
		}
	}

	bu, cu := meanUtil(base), meanUtil(cur)
	if bu > 0 && bu-cu > t.UtilAbs {
		regs = append(regs, lens.Regression{
			Dimension: "worker-util",
			Detail:    fmt.Sprintf("mean worker utilization dropped %.1f points", (bu-cu)*100),
			Base:      bu,
			Cur:       cu,
		})
	}
	return regs
}

// ContextMismatch lists the host-context fields that differ between two
// profiles — wall-clock comparisons across these are apples to oranges,
// so callers print them as warnings before any Diff output.
func ContextMismatch(base, cur Context) []string {
	var w []string
	if base.GoVersion != cur.GoVersion {
		w = append(w, fmt.Sprintf("go version %s vs %s", base.GoVersion, cur.GoVersion))
	}
	if base.GOOS != cur.GOOS || base.GOARCH != cur.GOARCH {
		w = append(w, fmt.Sprintf("platform %s/%s vs %s/%s", base.GOOS, base.GOARCH, cur.GOOS, cur.GOARCH))
	}
	if base.NumCPU != cur.NumCPU {
		w = append(w, fmt.Sprintf("cpu count %d vs %d", base.NumCPU, cur.NumCPU))
	}
	if base.GOMAXPROCS != cur.GOMAXPROCS {
		w = append(w, fmt.Sprintf("GOMAXPROCS %d vs %d", base.GOMAXPROCS, cur.GOMAXPROCS))
	}
	if base.Workers != cur.Workers {
		w = append(w, fmt.Sprintf("workers %d vs %d", base.Workers, cur.Workers))
	}
	if base.IdleSkip != cur.IdleSkip {
		w = append(w, fmt.Sprintf("idle-skip %v vs %v", base.IdleSkip, cur.IdleSkip))
	}
	return w
}

func phaseShares(p *Profile) map[string]float64 {
	m := make(map[string]float64, len(p.Phases))
	for _, ph := range p.Phases {
		m[ph.Name] = ph.Share
	}
	return m
}

func meanUtil(p *Profile) float64 {
	if len(p.Workers) == 0 {
		return 0
	}
	var sum float64
	for _, w := range p.Workers {
		sum += w.Util
	}
	return sum / float64(len(p.Workers))
}

func finitePos(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}
