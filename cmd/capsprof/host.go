package main

import (
	"flag"
	"fmt"
	"os"

	"caps/internal/hostprof"
	"caps/internal/profile"
)

// host renders a hostprof profile (capsim -hostprof, capsweep
// -hostprof-dir): a terminal report by default, a self-contained HTML one
// with -html. -profile joins the run's capsprof CPI stack into the HTML so
// host time and simulated time sit in one report. -validate additionally
// checks the profile's accounting invariants and exits non-zero when they
// don't hold.
func host(args []string) int {
	fs := flag.NewFlagSet("host", flag.ExitOnError)
	htmlOut := fs.String("html", "", "write a self-contained HTML report to this file")
	simProf := fs.String("profile", "", "join this capsprof profile JSON into the HTML report")
	validate := fs.Bool("validate", false, "check accounting invariants (phase sum, sampling coverage)")
	tol := fs.Float64("tolerance", hostprof.DefaultTolerance, "sampling-coverage tolerance for -validate")
	pos := parseArgs(fs, args)
	if len(pos) != 1 {
		fmt.Fprintln(os.Stderr, "capsprof host: need exactly one host-profile JSON path")
		return 2
	}
	hp, err := hostprof.ReadFile(pos[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 1
	}
	if *validate {
		if err := hp.Validate(*tol); err != nil {
			fmt.Fprintf(os.Stderr, "capsprof host: %s: %v\n", pos[0], err)
			return 1
		}
		fmt.Printf("capsprof host: %s: accounting invariants hold (coverage %.0f%%)\n", pos[0], hp.Coverage()*100)
	}
	if *htmlOut != "" {
		var sim *profile.Profile
		if *simProf != "" {
			sim, err = profile.ReadFile(*simProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "capsprof:", err)
				return 1
			}
		}
		f, err := os.Create(*htmlOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capsprof:", err)
			return 1
		}
		if err := hp.WriteHTML(f, sim); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "capsprof:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "capsprof:", err)
			return 1
		}
		fmt.Printf("wrote %s (%s/%s, %d workers)\n", *htmlOut, hp.Bench, hp.Prefetcher, len(hp.Workers))
		return 0
	}
	if err := hp.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 1
	}
	return 0
}

// hostDiff gates host-time regressions between two hostprof profiles:
// wall-clock blowup, phase-share shifts and worker-utilization drops
// past their thresholds exit 1. Context mismatches
// (different machine, worker count, idle-skip setting) are printed as
// warnings first — they usually explain the regression.
func hostDiff(args []string) int {
	fs := flag.NewFlagSet("host-diff", flag.ExitOnError)
	var th hostprof.Thresholds // zero fields fall back to hostprof defaults
	fs.Float64Var(&th.WallFrac, "wall", 0, "max fractional wall-clock increase (0 = default)")
	fs.Float64Var(&th.PhaseShareAbs, "phase", 0, "max absolute phase-share increase (0 = default)")
	fs.Float64Var(&th.UtilAbs, "util", 0, "max absolute mean-utilization drop (0 = default)")
	pos := parseArgs(fs, args)
	if len(pos) != 2 {
		fmt.Fprintln(os.Stderr, "capsprof host-diff: need <base> and <current> host-profile JSON paths")
		return 2
	}
	base, err := hostprof.ReadFile(pos[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 1
	}
	cur, err := hostprof.ReadFile(pos[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 1
	}
	for _, w := range hostprof.ContextMismatch(base.Host, cur.Host) {
		fmt.Printf("warning: host context mismatch: %s\n", w)
	}
	regs := hostprof.Diff(base, cur, th)
	if len(regs) == 0 {
		fmt.Println("capsprof host-diff: no regressions")
		return 0
	}
	fmt.Printf("capsprof host-diff: %d regression(s):\n", len(regs))
	for _, r := range regs {
		fmt.Println("  " + r.String())
	}
	return 1
}
