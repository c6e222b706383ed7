package experiments

import (
	"fmt"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/sim"
	"caps/internal/stats"
)

// This file contains ablations beyond the paper's figures: they isolate the
// design choices DESIGN.md §7 calls out (prefetch request buffer size,
// PerCTA/DIST table size, misprediction threshold, eager wake-up) and the
// paper's forward-looking claim that more concurrent CTAs make CTA-aware
// prefetching more important (Kepler-class occupancy).

// ablationBenches is the subset used for the sweeps: the strongest CAPS
// case (CNV), a loop-tiled kernel (MM) and an irregular one (BFS).
var ablationBenches = []string{"CNV", "MM", "BFS"}

func runWith(cfg config.GPUConfig, bench, pf string) (*stats.Sim, error) {
	k, err := kernels.ByAbbr(bench)
	if err != nil {
		return nil, err
	}
	cfg = config.Derive(cfg, config.Overrides{Scheduler: SchedulerFor(pf)})
	g, err := sim.New(cfg, k, sim.WithPrefetcher(pf))
	if err != nil {
		return nil, err
	}
	return g.Run()
}

// meanSpeedup runs CAPS vs baseline over the ablation benches and returns
// the arithmetic-mean normalized IPC.
func meanSpeedup(cfg config.GPUConfig) (float64, error) {
	var vs []float64
	for _, b := range ablationBenches {
		base, err := runWith(cfg, b, "none")
		if err != nil {
			return 0, err
		}
		caps, err := runWith(cfg, b, "caps")
		if err != nil {
			return 0, err
		}
		vs = append(vs, caps.IPC()/base.IPC())
	}
	return stats.Mean(vs), nil
}

// AblationTableSize sweeps the PerCTA/DIST table size (the paper fixes it
// at 4 entries, i.e. at most four targeted loads).
func AblationTableSize(cfg config.GPUConfig, sizes []int) (*stats.Table, error) {
	if len(sizes) == 0 {
		sizes = []int{1, 2, 4, 8}
	}
	t := &stats.Table{Header: []string{"table entries", "mean CAPS speedup"}}
	for _, n := range sizes {
		c := config.Derive(cfg, config.Overrides{PrefetchTableSize: n})
		v, err := meanSpeedup(c)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), fmtF(v, 3))
	}
	return t, nil
}

// AblationPrefetchBuffer sweeps the prefetch request buffer (0 disables
// prefetch misses entirely; the default is 16).
func AblationPrefetchBuffer(cfg config.GPUConfig, sizes []int) (*stats.Table, error) {
	if len(sizes) == 0 {
		sizes = []int{4, 8, 16, 32}
	}
	t := &stats.Table{Header: []string{"prefetch buffer entries", "mean CAPS speedup"}}
	for _, n := range sizes {
		c := config.Derive(cfg, config.Overrides{PrefetchBufferEntries: n})
		v, err := meanSpeedup(c)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), fmtF(v, 3))
	}
	return t, nil
}

// AblationMispredictThreshold sweeps the DIST misprediction shut-off
// threshold (paper default 128).
func AblationMispredictThreshold(cfg config.GPUConfig, thresholds []int) (*stats.Table, error) {
	if len(thresholds) == 0 {
		thresholds = []int{8, 32, 128, 255}
	}
	t := &stats.Table{Header: []string{"mispredict threshold", "mean CAPS speedup"}}
	for _, n := range thresholds {
		c := config.Derive(cfg, config.Overrides{MispredictThreshold: n})
		v, err := meanSpeedup(c)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), fmtF(v, 3))
	}
	return t, nil
}

// AblationWakeup compares CAPS with and without PAS's eager warp wake-up
// (the paper's Section VI-E discussion).
func AblationWakeup(cfg config.GPUConfig) (*stats.Table, error) {
	t := &stats.Table{Header: []string{"config", "mean CAPS speedup"}}
	on := cfg
	on.PrefetchWakeup = true
	v, err := meanSpeedup(on)
	if err != nil {
		return nil, err
	}
	t.AddRow("with wake-up", fmtF(v, 3))
	off := config.Derive(cfg, config.Overrides{DisableWakeup: true})
	v, err = meanSpeedup(off)
	if err != nil {
		return nil, err
	}
	t.AddRow("without wake-up", fmtF(v, 3))
	return t, nil
}

// KeplerClass returns a Kepler-GK110-flavoured configuration: double the
// warp and CTA occupancy of Fermi with the same L1 capacity — the regime
// the paper argues makes CTA-aware prefetching more critical (its Fig. 11
// discussion: "increasing CTA count accommodated per SM only makes the
// CTA-aware prefetching even more critical").
func KeplerClass() config.GPUConfig {
	cfg := config.Default()
	cfg.MaxWarpsPerSM = 64
	cfg.MaxCTAsPerSM = 16
	cfg.IssueWidth = 4 // four warp schedulers
	return cfg
}

// AblationOccupancy contrasts Fermi-class and Kepler-class occupancy.
func AblationOccupancy(fermi config.GPUConfig) (*stats.Table, error) {
	t := &stats.Table{Header: []string{"machine", "mean CAPS speedup"}}
	v, err := meanSpeedup(fermi)
	if err != nil {
		return nil, err
	}
	t.AddRow("Fermi-class (48 warps, 8 CTAs)", fmtF(v, 3))
	kepler := KeplerClass()
	kepler.MaxInsts = fermi.MaxInsts
	kepler.MaxCycle = fermi.MaxCycle
	v, err = meanSpeedup(kepler)
	if err != nil {
		return nil, err
	}
	t.AddRow("Kepler-class (64 warps, 16 CTAs)", fmtF(v, 3))
	return t, nil
}
