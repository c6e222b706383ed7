package main

import (
	"flag"
	"fmt"
	"os"

	"caps/internal/schedlens"
)

// sched renders a schedlens profile (capsim -schedlens, capsweep
// -schedlens-dir): a terminal report by default, a self-contained HTML one
// with -html. The report covers the four decision-observability
// dimensions — CTA lifetime timelines with per-SM balance and tail
// attribution, scheduler pick-outcome provenance, CAP/DIST table
// dynamics, and leading-warp effectiveness — with ledger-truncation
// warnings surfaced in both renderings.
func sched(args []string) int {
	fs := flag.NewFlagSet("sched", flag.ContinueOnError)
	htmlOut := fs.String("html", "", "write a self-contained HTML report (inline SVG CTA timelines) to this file")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return flagExit(err)
	}
	if len(pos) != 1 {
		fmt.Fprintln(os.Stderr, "capsprof sched: need exactly one scheduler-profile JSON path")
		return 2
	}
	sp, err := schedlens.ReadFile(pos[0])
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
		if err := sp.WriteHTML(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "capsprof:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "capsprof:", err)
			return 1
		}
		fmt.Printf("wrote %s (%s/%s, %d CTAs)\n", *htmlOut, sp.Meta.Bench, sp.Meta.Prefetcher, sp.Timelines.Launches)
		return 0
	}
	if err := sp.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 1
	}
	return 0
}

// schedDiff gates scheduler-behavior regressions between two schedlens
// profiles: leading-warp effectiveness, PAS leading-promoted fraction,
// CAP/DIST hit rates, and per-SM CTA-retire balance dropping past their
// thresholds exit 1. Only drops gate — an improvement never fails.
func schedDiff(args []string) int {
	fs := flag.NewFlagSet("sched-diff", flag.ContinueOnError)
	var th schedlens.Thresholds // zero fields fall back to schedlens defaults
	fs.Float64Var(&th.EffectivenessAbs, "effectiveness", 0, "max absolute leading-warp-effectiveness drop (0 = default)")
	fs.Float64Var(&th.PromotedAbs, "promoted", 0, "max absolute leading-promoted-fraction drop (0 = default)")
	fs.Float64Var(&th.CTAHitAbs, "ctahit", 0, "max absolute CAP hit-rate drop (0 = default)")
	fs.Float64Var(&th.DistHitAbs, "disthit", 0, "max absolute DIST hit-rate drop (0 = default)")
	fs.Float64Var(&th.BalanceAbs, "balance", 0, "max absolute per-SM retire-balance drop (0 = default)")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return flagExit(err)
	}
	if len(pos) != 2 {
		fmt.Fprintln(os.Stderr, "capsprof sched-diff: need <base> and <current> scheduler-profile JSON paths")
		return 2
	}
	base, err := schedlens.ReadFile(pos[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 2
	}
	cur, err := schedlens.ReadFile(pos[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 2
	}
	regs := schedlens.Diff(base, cur, th)
	if len(regs) == 0 {
		fmt.Println("capsprof sched-diff: no regressions")
		return 0
	}
	fmt.Printf("capsprof sched-diff: %d regression(s):\n", len(regs))
	for _, r := range regs {
		fmt.Println("  " + r.String())
	}
	return 1
}
