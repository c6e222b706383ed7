// Command simcheck is the simulator's correctness gate. Its modes:
//
//	simcheck [-mode=lint] [./...]
//	    Type-check the whole module and run the simulator lint suite
//	    (detlint, cyclelint, statlint — see internal/analysis). Exits 1
//	    if any diagnostic survives //simcheck:allow suppression.
//
//	simcheck -mode=hotlint|isolint|all [-baseline file] [-update-baseline] [-inventory]
//	    Run the call-graph-aware module analyzers: hotlint flags
//	    heap-allocating constructs reachable from //caps:hotpath roots,
//	    isolint proves per-SM isolation of everything reachable from
//	    //caps:isolated roots (see internal/analysis). -mode=all also runs
//	    the per-package lint suite. Findings are ratcheted against the
//	    committed baseline (SIMCHECK_BASELINE at the module root):
//	    anything beyond it exits 1, shrunk debt is reported stale, and
//	    -update-baseline rewrites the file to the current findings.
//	    -inventory prints the //caps:shared-sync sync-point inventory —
//	    the cross-SM touch points a parallel tick must serialize.
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
	"flag"
	"fmt"
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
	mode := flag.String("mode", "lint", "lint, hotlint, isolint, all, determinism or tracecheck")
	benches := flag.String("benches", "STE,BFS,MM,CP", "determinism mode: comma-separated benchmark abbreviations")
	insts := flag.Int64("insts", 60_000, "determinism mode: per-run instruction cap (0 = full run)")
	every := flag.Int64("every", 0, "determinism mode: also compare periodic state-hash checkpoints every N cycles (0 = final hash only)")
	baseline := flag.String("baseline", "", "hotlint/isolint: ratchet baseline file (default <module root>/"+baselineName+")")
	updateBaseline := flag.Bool("update-baseline", false, "hotlint/isolint: rewrite the baseline to the current findings and exit")
	inventory := flag.Bool("inventory", false, "isolint: print the //caps:shared-sync sync-point inventory")
	flag.Parse()

	switch *mode {
	case "lint":
		os.Exit(lint())
	case "hotlint", "isolint", "all":
		os.Exit(lintModule(*mode, modeOpts{
			baseline:       *baseline,
			updateBaseline: *updateBaseline,
			inventory:      *inventory,
		}))
	case "determinism":
		if *every > sim.MaxProgressEvery {
			fmt.Fprintf(os.Stderr, "simcheck: -every %d exceeds the maximum %d\n", *every, sim.MaxProgressEvery)
			os.Exit(2)
		}
		os.Exit(checkDeterminism(strings.Split(*benches, ","), *insts, *every))
	case "tracecheck":
		os.Exit(checkTraces(flag.Args()))
	default:
		fmt.Fprintf(os.Stderr, "simcheck: unknown mode %q (want lint, hotlint, isolint, all, determinism or tracecheck)\n", *mode)
		os.Exit(2)
	}
}

type modeOpts struct {
	baseline       string
	updateBaseline bool
	inventory      bool
}

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
func lint() int {
	_, pkgs, err := loadPkgs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simcheck:", err)
		return 2
	}
	diags, err := analysis.Check(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "simcheck:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "simcheck: %d finding(s)\n", n)
		return 1
	}
	return 0
}

// lintModule runs the module-level analyzers (hotlint/isolint) against the
// ratchet baseline; -mode=all additionally runs the per-package suite
// (which is never baselined — it must stay clean outright).
func lintModule(mode string, opts modeOpts) int {
	root, pkgs, err := loadPkgs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simcheck:", err)
		return 2
	}
	var analyzers []*analysis.ModuleAnalyzer
	switch mode {
	case "hotlint":
		analyzers = []*analysis.ModuleAnalyzer{analysis.Hotlint}
	case "isolint":
		analyzers = []*analysis.ModuleAnalyzer{analysis.Isolint}
	default:
		analyzers = analysis.AllModule()
	}
	mdiags, err := analysis.CheckModule(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simcheck:", err)
		return 2
	}
	basePath := opts.baseline
	if basePath == "" {
		basePath = filepath.Join(root, baselineName)
	}
	if opts.updateBaseline {
		if err := analysis.WriteBaseline(basePath, mdiags); err != nil {
			fmt.Fprintln(os.Stderr, "simcheck:", err)
			return 2
		}
		fmt.Printf("simcheck: baseline %s rewritten with %d finding(s)\n", basePath, len(mdiags))
		return 0
	}
	base, err := analysis.LoadBaseline(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simcheck:", err)
		return 2
	}
	kept, stale := analysis.ApplyBaseline(mdiags, base)
	for _, s := range stale {
		fmt.Fprintln(os.Stderr, "simcheck: stale baseline: "+s)
	}

	var pkgDiags []analysis.Diagnostic
	if mode == "all" {
		pkgDiags, err = analysis.Check(pkgs, analysis.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, "simcheck:", err)
			return 2
		}
	}
	for _, d := range pkgDiags {
		fmt.Println(d)
	}
	for _, d := range kept {
		fmt.Println(d)
	}
	if opts.inventory {
		inv := analysis.SharedInventory(pkgs)
		fmt.Printf("# shared-sync inventory: %d touch point(s) the parallel-tick barrier must serialize\n", len(inv))
		for _, p := range inv {
			fmt.Printf("%-14s %s:%d\t%s\t%s\n", p.Phase, p.Pos.Filename, p.Pos.Line, p.Func, p.Desc)
		}
	}
	if n := len(kept) + len(pkgDiags); n > 0 {
		fmt.Fprintf(os.Stderr, "simcheck: %d un-baselined finding(s)\n", n)
		return 1
	}
	return 0
}

// checkDeterminism replays each benchmark twice under the sanitizer. CAPS
// benchmarks run on the prefetch-aware scheduler, mirroring the paper's
// evaluation pairing; a no-prefetch baseline rides along for contrast.
// With every > 0 the whole periodic checkpoint series is compared, not
// just the final hash, so a transient divergence that happens to cancel
// out by the end still fails the gate.
func checkDeterminism(benches []string, insts, every int64) int {
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
					fmt.Fprintf(os.Stderr, "simcheck: %s/%s: %v\n", b, pf, err)
					failed = true
					continue
				}
				fmt.Printf("%-6s %-5s reproducible (%d checkpoints, state hash %#016x)\n", b, pf, n, h)
				continue
			}
			h, err := determinism.Check(cfg, b, opt...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "simcheck: %s/%s: %v\n", b, pf, err)
				failed = true
				continue
			}
			fmt.Printf("%-6s %-5s reproducible (state hash %#016x)\n", b, pf, h)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// checkTraces validates each Chrome trace file and prints its census.
func checkTraces(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "simcheck: tracecheck needs at least one trace file")
		return 2
	}
	failed := false
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simcheck:", err)
			failed = true
			continue
		}
		sum, err := obs.ValidateChromeTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "simcheck: %s: %v\n", p, err)
			failed = true
			continue
		}
		fmt.Printf("%s: %d events on %d tracks (%d SM), %d sched events, %d complete prefetch lifecycles, %d dropped\n",
			p, sum.Events, sum.Tracks, sum.SMTracks, sum.SchedEvents, sum.PrefLifecycle, sum.Dropped)
	}
	if failed {
		return 1
	}
	return 0
}
