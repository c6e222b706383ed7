package main

import (
	"flag"
	"fmt"
	"os"

	"caps/internal/memlens"
)

// mem renders a memlens profile (capsim -memlens, capsweep -memlens-dir):
// a terminal report by default, a self-contained HTML one with -html. The
// report covers the four memory-observability dimensions — θ/Δ address
// structure per load PC, prefetch timeliness, reuse distance per cache
// level, and DRAM/queue locality — with ledger-truncation warnings
// surfaced in both renderings.
func mem(args []string) int {
	fs := flag.NewFlagSet("mem", flag.ContinueOnError)
	htmlOut := fs.String("html", "", "write a self-contained HTML report to this file")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return flagExit(err)
	}
	if len(pos) != 1 {
		fmt.Fprintln(os.Stderr, "capsprof mem: need exactly one memory-profile JSON path")
		return 2
	}
	mp, err := memlens.ReadFile(pos[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 1
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capsprof:", err)
			return 1
		}
		if err := mp.WriteHTML(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "capsprof:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "capsprof:", err)
			return 1
		}
		fmt.Printf("wrote %s (%s/%s, %d load PCs)\n", *htmlOut, mp.Meta.Bench, mp.Meta.Prefetcher, len(mp.AddrStructure.PCs))
		return 0
	}
	if err := mp.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 1
	}
	return 0
}

// memDiff gates memory-behavior regressions between two memlens profiles:
// θ/Δ explainability, accurate-prefetch share, row-buffer hit rate,
// sampled-reuse fraction per level, and bank spread dropping past their
// thresholds exit 1. Only drops gate — an improvement never fails.
func memDiff(args []string) int {
	fs := flag.NewFlagSet("mem-diff", flag.ContinueOnError)
	var th memlens.Thresholds // zero fields fall back to memlens defaults
	fs.Float64Var(&th.ExplainedAbs, "explained", 0, "max absolute θ/Δ explained-fraction drop (0 = default)")
	fs.Float64Var(&th.AccurateAbs, "accurate", 0, "max absolute accurate-prefetch-share drop (0 = default)")
	fs.Float64Var(&th.RowHitAbs, "rowhit", 0, "max absolute row-buffer hit-rate drop (0 = default)")
	fs.Float64Var(&th.ReuseFracAbs, "reuse", 0, "max absolute sampled-reuse-fraction drop per level (0 = default)")
	fs.Float64Var(&th.BankSpreadAbs, "spread", 0, "max absolute bank-spread drop (0 = default)")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return flagExit(err)
	}
	if len(pos) != 2 {
		fmt.Fprintln(os.Stderr, "capsprof mem-diff: need <base> and <current> memory-profile JSON paths")
		return 2
	}
	base, err := memlens.ReadFile(pos[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 2
	}
	cur, err := memlens.ReadFile(pos[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 2
	}
	regs := memlens.Diff(base, cur, th)
	if len(regs) == 0 {
		fmt.Println("capsprof mem-diff: no regressions")
		return 0
	}
	fmt.Printf("capsprof mem-diff: %d regression(s):\n", len(regs))
	for _, r := range regs {
		fmt.Println("  " + r.String())
	}
	return 1
}
