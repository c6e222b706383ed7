// Command simcheck is the simulator's correctness gate. Its modes:
//
//	simcheck [-mode=lint] [./...]
//	    Type-check the whole module and run the simulator lint suite
//	    (detlint, cyclelint, statlint — see internal/analysis). Exits 1
//	    if any diagnostic survives //simcheck:allow suppression.
//
//	simcheck -mode=hotlint|all [-baseline file] [-update-baseline]
//	    Run the call-graph-aware module analyzer: hotlint flags
//	    heap-allocating constructs reachable from //caps:hotpath roots
//	    (see internal/analysis). -mode=all also runs the per-package lint
//	    suite. Findings are ratcheted against the committed baseline
//	    (SIMCHECK_BASELINE at the module root): anything beyond it exits
//	    1, shrunk debt is reported stale, and -update-baseline rewrites
//	    the file to the current findings.
//
//	simcheck -mode=determinism [-benches STE,BFS,MM] [-insts N] [-every K]
//	    Run each benchmark twice with the invariant sanitizer enabled
//	    (internal/invariant) and compare FNV-1a hashes of the final
//	    statistics + memory-system state. With -every K the comparison
//	    covers a periodic checkpoint series (one state hash every K
//	    cycles), catching transient divergences that cancel out by the
//	    end. Exits 1 on a sanitizer violation or a hash divergence.
//
//	simcheck -mode=tracecheck file.json [more.json ...]
//	    Validate Chrome trace-event files produced by `capsim -trace` or
//	    `capsweep -trace-dir`: well-formed JSON, cycle-monotonic per
//	    track, and report the track/event census. Exits 1 on a malformed
//	    or out-of-order trace.
//
// The lint and determinism modes are wired into `make check` and CI;
// tracecheck backs `make trace-smoke`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"caps/internal/analysis"
	"caps/internal/config"
	"caps/internal/invariant/determinism"
	"caps/internal/obs"
	"caps/internal/sim"
)

// baselineName is the committed ratchet file at the module root.
const baselineName = "SIMCHECK_BASELINE"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body, on its own flag set so tests can drive the command
// line. It returns the exit status: 0 clean, 1 findings (lint diagnostics,
// a determinism divergence or sanitizer violation, a bad trace), 2 usage
// or load errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "lint", "lint, hotlint, all, determinism or tracecheck")
	benches := fs.String("benches", "STE,BFS,MM,CP", "determinism mode: comma-separated benchmark abbreviations")
	insts := fs.Int64("insts", 60_000, "determinism mode: per-run instruction cap (0 = full run)")
	every := fs.Int64("every", 0, "determinism mode: also compare periodic state-hash checkpoints every N cycles (0 = final hash only)")
	baseline := fs.String("baseline", "", "hotlint: ratchet baseline file (default <module root>/"+baselineName+")")
	updateBaseline := fs.Bool("update-baseline", false, "hotlint: rewrite the baseline to the current findings and exit")
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	out := output{stdout, stderr}

	switch *mode {
	case "lint":
		return out.lint()
	case "hotlint", "all":
		return out.lintModule(*mode == "all", *baseline, *updateBaseline)
	case "determinism":
		if *every > sim.MaxProgressEvery {
			fmt.Fprintf(stderr, "simcheck: -every %d exceeds the maximum %d\n", *every, sim.MaxProgressEvery)
			return 2
		}
		return out.checkDeterminism(strings.Split(*benches, ","), *insts, *every)
	case "tracecheck":
		return out.checkTraces(fs.Args())
	default:
		fmt.Fprintf(stderr, "simcheck: unknown mode %q (want lint, hotlint, all, determinism or tracecheck)\n", *mode)
		return 2
	}
}

// output carries the command's two streams to the modes.
type output struct{ stdout, stderr io.Writer }

// loadPkgs type-checks the enclosing module. Package patterns on the
// command line are accepted for `go run ./cmd/simcheck ./...` ergonomics
// but every mode always audits the whole module: each analyzer scopes
// itself.
func loadPkgs() (string, []*analysis.Package, error) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		return "", nil, err
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		return "", nil, err
	}
	return root, pkgs, nil
}

// lint runs the per-package analyzer suite.
func (o output) lint() int {
	_, pkgs, err := loadPkgs()
	if err != nil {
		fmt.Fprintln(o.stderr, "simcheck:", err)
		return 2
	}
	diags, err := analysis.Check(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(o.stderr, "simcheck:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(o.stdout, d)
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(o.stderr, "simcheck: %d finding(s)\n", n)
		return 1
	}
	return 0
}

// lintModule runs the module-level analyzers (hotlint) against the
// ratchet baseline at basePath; withPkg (-mode=all) additionally runs the
// per-package suite (which is never baselined — it must stay clean
// outright).
func (o output) lintModule(withPkg bool, basePath string, update bool) int {
	root, pkgs, err := loadPkgs()
	if err != nil {
		fmt.Fprintln(o.stderr, "simcheck:", err)
		return 2
	}
	mdiags, err := analysis.CheckModule(pkgs, analysis.AllModule())
	if err != nil {
		fmt.Fprintln(o.stderr, "simcheck:", err)
		return 2
	}
	if basePath == "" {
		basePath = filepath.Join(root, baselineName)
	}
	if update {
		if err := analysis.WriteBaseline(basePath, mdiags); err != nil {
			fmt.Fprintln(o.stderr, "simcheck:", err)
			return 2
		}
		fmt.Fprintf(o.stdout, "simcheck: baseline %s rewritten with %d finding(s)\n", basePath, len(mdiags))
		return 0
	}
	base, err := analysis.LoadBaseline(basePath)
	if err != nil {
		fmt.Fprintln(o.stderr, "simcheck:", err)
		return 2
	}
	kept, stale := analysis.ApplyBaseline(mdiags, base)
	for _, s := range stale {
		fmt.Fprintln(o.stderr, "simcheck: stale baseline: "+s)
	}

	var pkgDiags []analysis.Diagnostic
	if withPkg {
		pkgDiags, err = analysis.Check(pkgs, analysis.All())
		if err != nil {
			fmt.Fprintln(o.stderr, "simcheck:", err)
			return 2
		}
	}
	for _, d := range pkgDiags {
		fmt.Fprintln(o.stdout, d)
	}
	for _, d := range kept {
		fmt.Fprintln(o.stdout, d)
	}
	if n := len(kept) + len(pkgDiags); n > 0 {
		fmt.Fprintf(o.stderr, "simcheck: %d un-baselined finding(s)\n", n)
		return 1
	}
	return 0
}

// checkDeterminism replays each benchmark twice under the sanitizer. CAPS
// benchmarks run on the prefetch-aware scheduler, mirroring the paper's
// evaluation pairing; a no-prefetch baseline rides along for contrast. A
// memory-bound leg then replays BFS-CAPS at the default SM count.
// With every > 0 the whole periodic checkpoint series is compared, not
// just the final hash, so a transient divergence that happens to cancel
// out by the end still fails the gate.
func (o output) checkDeterminism(benches []string, insts, every int64) int {
	cfg := config.Default()
	cfg.NumSMs = 4
	cfg.MaxInsts = insts

	failed := false
	for _, b := range benches {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		for _, pf := range []string{"caps", "none"} {
			opt := []sim.Option{sim.WithPrefetcher(pf), sim.WithScheduler(determinism.SchedulerFor(pf))}
			if every > 0 {
				n, h, err := determinism.CheckSeries(cfg, b, every, opt...)
				if err != nil {
					fmt.Fprintf(o.stderr, "simcheck: %s/%s: %v\n", b, pf, err)
					failed = true
					continue
				}
				fmt.Fprintf(o.stdout, "%-6s %-5s reproducible (%d checkpoints, state hash %#016x)\n", b, pf, n, h)
				continue
			}
			h, err := determinism.Check(cfg, b, opt...)
			if err != nil {
				fmt.Fprintf(o.stderr, "simcheck: %s/%s: %v\n", b, pf, err)
				failed = true
				continue
			}
			fmt.Fprintf(o.stdout, "%-6s %-5s reproducible (state hash %#016x)\n", b, pf, h)
		}
	}
	// The memory-bound leg. At 4 SMs the L2 slices never fill their MSHR
	// files, so no retry queue stalls and its sleep goes unaudited above;
	// BFS at the default 15 SMs stalls them and spends most SM-cycles in
	// skipped windows. Both runs' sanitizers audit every skipped partition
	// tick (Partition.CheckSkip) and every settled SM window, and the two
	// checkpoint series must be identical.
	memCfg := config.Default()
	memCfg.MaxInsts = insts
	opt := []sim.Option{sim.WithPrefetcher("caps"), sim.WithScheduler(determinism.SchedulerFor("caps"))}
	if n, h, err := determinism.CheckSeries(memCfg, "BFS", every, opt...); err != nil {
		fmt.Fprintf(o.stderr, "simcheck: BFS/caps at %d SMs: %v\n", memCfg.NumSMs, err)
		failed = true
	} else {
		fmt.Fprintf(o.stdout, "%-6s %-5s reproducible at %d SMs (%d checkpoints, state hash %#016x)\n",
			"BFS", "caps", memCfg.NumSMs, n, h)
	}
	if failed {
		return 1
	}
	return 0
}

// checkTraces validates each Chrome trace file and prints its census.
func (o output) checkTraces(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(o.stderr, "simcheck: tracecheck needs at least one trace file")
		return 2
	}
	failed := false
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			fmt.Fprintln(o.stderr, "simcheck:", err)
			failed = true
			continue
		}
		sum, err := obs.ValidateChromeTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(o.stderr, "simcheck: %s: %v\n", p, err)
			failed = true
			continue
		}
		fmt.Fprintf(o.stdout, "%s: %d events on %d tracks (%d SM), %d sched events, %d complete prefetch lifecycles, %d dropped\n",
			p, sum.Events, sum.Tracks, sum.SMTracks, sum.SchedEvents, sum.PrefLifecycle, sum.Dropped)
	}
	if failed {
		return 1
	}
	return 0
}
