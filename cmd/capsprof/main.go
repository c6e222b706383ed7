// Command capsprof interprets the lens profiles capsim and capsweep write
// (see internal/lenses): it renders human-readable reports and gates
// performance regressions in CI.
//
// Usage:
//
//	capsprof stall run.profile.json [-html report.html]
//	capsprof stall-diff base.profile.json cur.profile.json [-ipc 0.01] [-stall 0.01]
//	capsprof bench-diff BENCH_caps.json cur.profile.json
//	capsprof bench-diff BENCH_caps.json BENCH_new.json
//	capsprof speed-diff BENCH_speed.json BENCH_speed_new.json [-tolerance 0.2]
//	capsprof host run.host.json [-html report.html] [-profile run.profile.json] [-validate]
//	capsprof host-diff base.host.json cur.host.json
//	capsprof mem run.mem.json [-html report.html]
//	capsprof mem-diff base.mem.json cur.mem.json
//	capsprof sched run.sched.json [-html report.html]
//	capsprof sched-diff base.sched.json cur.sched.json
//
// Every -diff subcommand exits 1 when any metric regresses past its
// threshold, 0 otherwise, and 2 on a usage error or an input it cannot
// load — wire it into CI after a sweep to turn perf eyeballing into a gate.
// bench-diff gates against a committed BENCH_caps.json (capsweep
// -bench-json): a report against a report over their common benchmarks,
// or a profile against its benchmark's row.
// speed-diff does the same for simulator wall-clock (capsweep -speed-json):
// it fails when a benchmark simulates different work or its wall time
// rose past the tolerance, so compare reports from comparable hosts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"caps/internal/experiments"
	"caps/internal/lenses"
	"caps/internal/profile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body, driven directly by the tests. It returns the exit
// status: 0 clean, 1 for a regression or a failed check, 2 for a usage
// error or an input that cannot be loaded.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	sub, args := args[0], args[1:]
	switch sub {
	case "bench-diff":
		return benchDiff(args, stdout, stderr)
	case "speed-diff":
		return speedDiff(args, stdout, stderr)
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	}
	for _, l := range lenses.All {
		switch sub {
		case l.Name:
			return show(l, args, stdout, stderr)
		case l.Name + "-diff":
			return lensDiff(l, args, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "capsprof: unknown subcommand %q\n", sub)
	usage(stderr)
	return 2
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newFlagSet builds a subcommand's flag set, reporting to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseArgs runs fs over args but, unlike flag's default, keeps going after
// positional arguments so `capsprof stall run.json -html out.html` works.
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

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  capsprof bench-diff <BENCH_caps.json> <bench-report|profile.json> [-ipc frac] [-coverage abs] [-accuracy abs]
      compare a bench report (capsweep -bench-json) or a stall-stack
      profile against a committed bench report and exit 1 on any headline
      regression past thresholds

  capsprof speed-diff <base-speed.json> <current-speed.json> [-tolerance frac]
      compare two capsweep -speed-json reports and exit 1 when any
      benchmark's cycles or instructions differ from the baseline's or
      its wall time rose more than the tolerance fraction above the
      baseline's; host-context mismatches are printed as warnings
`)
	for _, l := range lenses.All {
		fmt.Fprint(w, "\n"+l.Help)
	}
}

func benchDiff(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("bench-diff", stderr)
	th := profile.DefaultThresholds()
	fs.Float64Var(&th.IPCFrac, "ipc", th.IPCFrac, "max fractional IPC drop")
	fs.Float64Var(&th.CoverageAbs, "coverage", th.CoverageAbs, "max absolute coverage drop")
	fs.Float64Var(&th.AccuracyAbs, "accuracy", th.AccuracyAbs, "max absolute accuracy drop")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return flagExit(err)
	}
	if len(pos) != 2 {
		fmt.Fprintln(stderr, "capsprof bench-diff: need a <BENCH_caps.json> base and a <current> path")
		return 2
	}
	regs, err := profile.GateBench(pos[0], pos[1], th)
	if err != nil {
		fmt.Fprintln(stderr, "capsprof:", err)
		return 2
	}
	return printRegressions("bench-diff", regs, stdout)
}

func speedDiff(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("speed-diff", stderr)
	tol := fs.Float64("tolerance", 0.20, "max fractional wall-time rise before failing")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return flagExit(err)
	}
	if len(pos) != 2 {
		fmt.Fprintln(stderr, "capsprof speed-diff: need <base> and <current> BENCH_speed.json paths")
		return 2
	}
	base, err := experiments.ReadSpeedReport(pos[0])
	if err != nil {
		fmt.Fprintln(stderr, "capsprof:", err)
		return 2
	}
	cur, err := experiments.ReadSpeedReport(pos[1])
	if err != nil {
		fmt.Fprintln(stderr, "capsprof:", err)
		return 2
	}
	for _, w := range experiments.HostMismatch(base, cur) {
		fmt.Fprintf(stdout, "warning: host context mismatch: %s\n", w)
	}
	msgs := experiments.DiffSpeed(base, cur, *tol)
	if len(msgs) == 0 {
		fmt.Fprintf(stdout, "capsprof speed-diff: no regressions (%.0f ms, baseline %.0f ms)\n", cur.WallMS, base.WallMS)
		return 0
	}
	fmt.Fprintf(stdout, "capsprof speed-diff: %d regression(s):\n", len(msgs))
	for _, m := range msgs {
		fmt.Fprintln(stdout, "  "+m)
	}
	return 1
}
