// Command capsprof interprets profiles produced by capsim -profile /
// capsweep -profile-dir: it renders human-readable reports and gates
// performance regressions in CI.
//
// Usage:
//
//	capsprof report run.profile.json -html report.html [-json normalized.json]
//	capsprof diff base.profile.json cur.profile.json [-ipc 0.01] [-stall 0.01]
//	capsprof diff BENCH_caps.json cur.profile.json
//	capsprof diff BENCH_caps.json BENCH_new.json
//	capsprof speed-diff BENCH_speed.json BENCH_speed_new.json [-tolerance 0.2]
//	capsprof host run.host.json [-html report.html] [-profile run.profile.json] [-validate]
//	capsprof host-diff base.host.json cur.host.json
//	capsprof mem run.mem.json [-html report.html]
//	capsprof mem-diff base.mem.json cur.mem.json
//	capsprof sched run.sched.json [-html report.html]
//	capsprof sched-diff base.sched.json cur.sched.json
//
// diff exits 1 when any metric regresses past its threshold, 0 otherwise,
// and 2 on a usage error or an input it cannot load — wire it into CI
// after a sweep to turn perf eyeballing into a gate. The other -diff
// subcommands share the contract.
// speed-diff does the same for simulator wall-clock speedups (capsweep
// -speed-json): it compares base-vs-tuned speedup ratios, so the gate
// holds even when the two reports come from machines of different speeds.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"caps/internal/experiments"
	"caps/internal/profile"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	switch args[0] {
	case "report":
		return report(args[1:])
	case "diff":
		return diff(args[1:])
	case "speed-diff":
		return speedDiff(args[1:])
	case "host":
		return host(args[1:])
	case "host-diff":
		return hostDiff(args[1:])
	case "mem":
		return mem(args[1:])
	case "mem-diff":
		return memDiff(args[1:])
	case "sched":
		return sched(args[1:])
	case "sched-diff":
		return schedDiff(args[1:])
	case "-h", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "capsprof: unknown subcommand %q\n", args[0])
		usage()
		return 2
	}
}

// parseArgs runs fs over args but, unlike flag's default, keeps going after
// positional arguments so `capsprof report run.json -html out.html` works.
// It returns the positional arguments in order, or the flag error.
func parseArgs(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		rest := fs.Args()
		if len(rest) == 0 {
			return pos, nil
		}
		pos = append(pos, rest[0])
		args = rest[1:]
	}
}

// flagExit is the exit status for a flag error parseArgs returned: 0 when
// the user asked for -h (flag has already printed the defaults), 2 for a
// usage error.
func flagExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  capsprof report <profile.json> [-html out.html] [-json out.json]
      render a self-contained HTML report (stall-stack SVGs, per-PC ledger)
      and/or re-emit the normalized profile JSON

  capsprof diff <base> <current> [-ipc frac] [-stall frac] [-coverage abs] [-accuracy abs]
      compare two profiles (or a BENCH_caps.json baseline against a profile
      or another bench report) and exit 1 on any regression past thresholds

  capsprof speed-diff <base-speed.json> <current-speed.json> [-tolerance frac]
      compare two capsweep -speed-json reports and exit 1 when any
      benchmark's (or the aggregate) serial-vs-tuned speedup fell more
      than the tolerance fraction below the baseline's; host-context
      mismatches between the reports are printed as warnings

  capsprof host <run.host.json> [-html out.html] [-profile run.profile.json] [-validate]
      render a wall-clock self-profile (capsim -hostprof, capsweep
      -hostprof-dir): phase/worker/skip attribution as text, or a
      self-contained HTML report; -profile joins the run's CPI stack in

  capsprof host-diff <base.host.json> <current.host.json> [-wall|-phase|-util frac]
      compare two host profiles and exit 1 on wall-clock, phase-share
      or utilization regressions past thresholds

  capsprof mem <run.mem.json> [-html out.html]
      render a memory-hierarchy profile (capsim -memlens, capsweep
      -memlens-dir): θ/Δ address structure per load PC, prefetch
      timeliness, reuse distance per cache level, DRAM/queue locality

  capsprof mem-diff <base.mem.json> <current.mem.json> [-explained|-accurate|-rowhit|-reuse|-spread abs]
      compare two memory profiles and exit 1 on explainability,
      prefetch-accuracy, row-hit-rate, reuse, or bank-spread drops
      past thresholds

  capsprof sched <run.sched.json> [-html out.html]
      render a scheduler/CTA-decision profile (capsim -schedlens,
      capsweep -schedlens-dir): CTA lifetime timelines, pick-outcome
      provenance, CAP/DIST table dynamics, leading-warp effectiveness

  capsprof sched-diff <base.sched.json> <current.sched.json> [-effectiveness|-promoted|-ctahit|-disthit|-balance abs]
      compare two scheduler profiles and exit 1 on leading-warp
      effectiveness, promotion-fraction, table-hit-rate, or CTA-balance
      drops past thresholds
`)
}

func report(args []string) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	htmlOut := fs.String("html", "", "write the HTML report to this file (default: <profile>.html)")
	jsonOut := fs.String("json", "", "re-emit the normalized profile JSON to this file")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return flagExit(err)
	}
	if len(pos) != 1 {
		fmt.Fprintln(os.Stderr, "capsprof report: need exactly one profile JSON path")
		return 2
	}
	path := pos[0]
	p, err := profile.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 1
	}
	out := *htmlOut
	if out == "" {
		out = path + ".html"
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 1
	}
	if err := profile.WriteHTML(f, p); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 1
	}
	fmt.Printf("wrote %s (%s/%s, %d cycles, %d PCs)\n", out, p.Meta.Bench, p.Meta.Prefetcher, p.TotalCycles, len(p.PCs))
	if p.TruncatedPCs > 0 || p.TruncatedCTAs > 0 {
		fmt.Fprintf(os.Stderr, "capsprof report: WARNING: ledger cap reached — %d PC and %d CTA events uncounted; per-PC/per-CTA tables understate activity\n",
			p.TruncatedPCs, p.TruncatedCTAs)
	}
	if *jsonOut != "" {
		if err := p.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "capsprof:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	return 0
}

func diff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	th := profile.DefaultThresholds()
	fs.Float64Var(&th.IPCFrac, "ipc", th.IPCFrac, "max fractional IPC drop")
	fs.Float64Var(&th.StallFrac, "stall", th.StallFrac, "max absolute stall-share increase per bucket")
	fs.Float64Var(&th.CoverageAbs, "coverage", th.CoverageAbs, "max absolute coverage drop")
	fs.Float64Var(&th.AccuracyAbs, "accuracy", th.AccuracyAbs, "max absolute accuracy drop")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return flagExit(err)
	}
	if len(pos) != 2 {
		fmt.Fprintln(os.Stderr, "capsprof diff: need <base> and <current> paths")
		return 2
	}
	base, err := profile.ReadBaseline(pos[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 2
	}
	cur, err := profile.ReadBaseline(pos[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 2
	}

	var regs []profile.Regression
	switch {
	case base.Profile != nil && cur.Profile != nil:
		regs = profile.Diff(base.Profile, cur.Profile, th)
	case base.Bench != nil && cur.Profile != nil:
		regs, err = profile.DiffBench(base.Bench, cur.Profile, th)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capsprof:", err)
			return 2
		}
	case base.Bench != nil && cur.Bench != nil:
		regs = profile.DiffBenchReports(base.Bench, cur.Bench, th)
	default:
		fmt.Fprintln(os.Stderr, "capsprof: a full profile cannot baseline a bench report (swap the arguments)")
		return 2
	}

	if len(regs) == 0 {
		fmt.Println("capsprof diff: no regressions")
		return 0
	}
	fmt.Printf("capsprof diff: %d regression(s):\n", len(regs))
	for _, r := range regs {
		fmt.Println("  " + r.String())
	}
	return 1
}

func speedDiff(args []string) int {
	fs := flag.NewFlagSet("speed-diff", flag.ContinueOnError)
	tol := fs.Float64("tolerance", 0.20, "max fractional speedup drop before failing")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return flagExit(err)
	}
	if len(pos) != 2 {
		fmt.Fprintln(os.Stderr, "capsprof speed-diff: need <base> and <current> BENCH_speed.json paths")
		return 2
	}
	base, err := experiments.ReadSpeedReport(pos[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 2
	}
	cur, err := experiments.ReadSpeedReport(pos[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsprof:", err)
		return 2
	}
	for _, w := range experiments.HostMismatch(base, cur) {
		fmt.Printf("warning: host context mismatch: %s\n", w)
	}
	msgs := experiments.DiffSpeed(base, cur, *tol)
	if len(msgs) == 0 {
		fmt.Printf("capsprof speed-diff: no regressions (aggregate %.2fx, baseline %.2fx)\n", cur.Speedup, base.Speedup)
		return 0
	}
	fmt.Printf("capsprof speed-diff: %d regression(s):\n", len(msgs))
	for _, m := range msgs {
		fmt.Println("  " + m)
	}
	return 1
}
