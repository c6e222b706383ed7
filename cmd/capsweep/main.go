// Command capsweep regenerates the CAPS paper's tables and figures.
//
// Usage:
//
//	capsweep -fig 10            # one figure
//	capsweep -table 3           # one table
//	capsweep -all               # everything (several minutes)
//	capsweep -fig 10 -csv       # machine-readable output
//	capsweep -fig 10 -insts 200000   # faster, lower-fidelity sweep
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"caps/internal/config"
	"caps/internal/experiments"
	"caps/internal/lenses"
	"caps/internal/obs"
	"caps/internal/profile"
	"caps/internal/sim"
	"caps/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body, on its own flag set so tests can drive the command
// line. It returns the exit status: 0 for a clean sweep, 1 when any run or
// output failed, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	// Warm's workers report per-run failures concurrently.
	stderr = &lockedWriter{w: stderr}
	fs := flag.NewFlagSet("capsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig        = fs.String("fig", "", "comma-separated figures to regenerate: 1, 4, 10, 11, 12, 13, 14a, 14b, 15")
		table      = fs.String("table", "", "table to regenerate: 1, 2, 3, 4")
		abl        = fs.String("ablation", "", "ablation to run: tables, buffer, threshold, wakeup, occupancy")
		all        = fs.Bool("all", false, "regenerate every figure and table")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned text")
		insts      = fs.Int64("insts", 0, "override the per-run instruction cap")
		par        = fs.Int("par", 0, "parallel simulations (default: GOMAXPROCS)")
		benches    = fs.String("benches", "", "comma-separated benchmark subset (default: all 16)")
		traceDir   = fs.String("trace-dir", "", "write a Chrome trace + metrics CSV per run into this directory")
		profileDir = fs.String("profile-dir", "", "write a capsprof profile JSON per run into this directory")
		benchJSON  = fs.String("bench-json", "", "run the CAPS suite and write BENCH_caps.json-style metrics to this file, then exit")
		speedJSON  = fs.String("speed-json", "", "time every benchmark (median of three round-robin runs, identical stats required), write BENCH_speed.json-style timings to this file, then exit")
		flightDir  = fs.String("flight-dir", "", "attach a flight recorder to every run; a run that dies leaves <dir>/<run>.flight.jsonl (see capscope)")
	)
	lensDirs := make([]*string, len(lenses.All))
	for i, l := range lenses.All {
		lensDirs[i] = fs.String(l.Flag+"-dir", "", l.SweepUsage)
	}
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	// failed marks a sweep that lost a run or an output; Warm's workers set
	// it concurrently.
	var failed atomic.Bool
	for _, dir := range append([]*string{traceDir, profileDir, flightDir}, lensDirs...) {
		if *dir == "" {
			continue
		}
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "capsweep:", err)
			return 1
		}
	}

	cfg := config.Default()
	if *insts > 0 {
		cfg.MaxInsts = *insts
	}
	var benchList []string
	if *benches != "" {
		benchList = strings.Split(*benches, ",")
	}
	if *speedJSON != "" {
		rep, err := experiments.BuildSpeedReport(cfg, benchList)
		if err == nil {
			err = rep.WriteFile(*speedJSON)
		}
		if err != nil {
			fmt.Fprintln(stderr, "capsweep:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d benchmarks, %.0f ms of median wall time)\n",
			*speedJSON, len(rep.Entries), rep.WallMS)
		return 0
	}
	opts := []experiments.Option{experiments.WithParallelism(*par)}
	if len(benchList) > 0 {
		opts = append(opts, experiments.WithBenches(benchList))
	}
	if *traceDir != "" || *profileDir != "" {
		// Warm's workers run concurrently, so the sink→collector pairing is
		// kept in a mutex-guarded map keyed by the (unique, memoized) RunKey.
		var mu sync.Mutex
		collectors := make(map[experiments.RunKey]*profile.Collector)
		opts = append(opts, experiments.WithObs(
			func(k experiments.RunKey) *obs.Sink {
				snk := sim.NewSink(cfg, *traceDir != "", obs.DefaultTraceCap)
				if *profileDir != "" {
					col := profile.NewCollector(cfg.NumSMs)
					snk.Attach(col)
					mu.Lock()
					collectors[k] = col
					mu.Unlock()
				}
				return snk
			},
			func(k experiments.RunKey, s *obs.Sink, st *stats.Sim) {
				if *traceDir != "" {
					if err := exportRun(*traceDir, k, s); err != nil {
						fmt.Fprintln(stderr, "capsweep: trace export:", err)
					}
				}
				if *profileDir != "" {
					mu.Lock()
					col := collectors[k]
					mu.Unlock()
					if err := exportProfile(*profileDir, cfg, k, col, st); err != nil {
						fmt.Fprintln(stderr, "capsweep: profile export:", err)
					}
				}
			},
		))
	}
	if *flightDir != "" {
		opts = append(opts, experiments.WithFlight(*flightDir, func(k experiments.RunKey, err error) {
			fmt.Fprintf(stderr, "capsweep: flight %s: %v\n", k.Name(), err)
		}))
	}
	for i, l := range lenses.All {
		dir := *lensDirs[i]
		if dir == "" {
			continue
		}
		opts = append(opts, experiments.WithLens(l, func(k experiments.RunKey, p lenses.Profile) {
			if err := p.WriteFile(filepath.Join(dir, k.Name()+l.Suffix)); err != nil {
				fmt.Fprintf(stderr, "capsweep: %s %s: %v\n", l.Flag, k.Name(), err)
				failed.Store(true)
			}
		}))
	}
	suite := experiments.NewSuite(cfg, opts...)

	// Graceful SIGINT: the first ^C asks every in-flight simulation to stop
	// at its next progress beat, so partial results flush and interrupted
	// runs land in the failure summary (non-zero exit). A second ^C kills
	// the process outright.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt)
	defer func() {
		signal.Stop(sigCh)
		close(sigCh)
	}()
	go func() {
		if _, ok := <-sigCh; !ok {
			return
		}
		fmt.Fprintln(stderr, "capsweep: interrupt: stopping in-flight runs (press ^C again to kill)")
		suite.Interrupt()
		if _, ok := <-sigCh; ok {
			os.Exit(130)
		}
	}()

	if *benchJSON != "" {
		rep, err := suite.BuildBenchReport()
		if err == nil {
			err = rep.WriteFile(*benchJSON)
		}
		if err != nil {
			fmt.Fprintln(stderr, "capsweep:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d benchmarks)\n", *benchJSON, len(rep.Benchmarks))
		if failed.Load() {
			return 1
		}
		return 0
	}

	emit := func(title string, t *stats.Table) {
		fmt.Fprintf(stdout, "== %s ==\n", title)
		if *csv {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprint(stdout, t.String())
		}
		fmt.Fprintln(stdout)
	}
	// fail reports a driver error and marks the sweep partially failed, but
	// does not exit: remaining figures still run, and the failure summary
	// at the end carries the non-zero verdict.
	fail := func(err error) {
		fmt.Fprintln(stderr, "capsweep:", err)
		failed.Store(true)
	}

	figures := map[string]func(){
		"1": func() {
			t, err := experiments.Figure1(cfg, 10)
			if err != nil {
				fail(err)
				return
			}
			emit("Figure 1: inter-warp stride prefetch accuracy and cycle gap vs warp distance (MM)", t)
		},
		"4": func() {
			emit("Figure 4: load iteration characterization", experiments.Figure4())
		},
		"10": func() {
			t, err := experiments.Figure10(suite)
			if err != nil {
				fail(err)
				return
			}
			emit("Figure 10: normalized IPC over two-level scheduler without prefetch", t)
		},
		"11": func() {
			t, err := experiments.Figure11(suite)
			if err != nil {
				fail(err)
				return
			}
			emit("Figure 11: performance by number of concurrent CTAs", t)
		},
		"12": func() {
			cov, acc, err := experiments.Figure12(suite)
			if err != nil {
				fail(err)
				return
			}
			emit("Figure 12a: prefetch coverage", cov)
			emit("Figure 12b: prefetch accuracy", acc)
		},
		"13": func() {
			reqs, reads, err := experiments.Figure13(suite)
			if err != nil {
				fail(err)
				return
			}
			emit("Figure 13a: fetch requests from cores (normalized)", reqs)
			emit("Figure 13b: data read from memory (normalized)", reads)
		},
		"14a": func() {
			t, err := experiments.Figure14a(suite)
			if err != nil {
				fail(err)
				return
			}
			emit("Figure 14a: early prefetch ratio", t)
		},
		"14b": func() {
			t, err := experiments.Figure14b(suite)
			if err != nil {
				fail(err)
				return
			}
			emit("Figure 14b: prefetch distance of timely prefetches", t)
		},
		"15": func() {
			t, err := experiments.Figure15(suite)
			if err != nil {
				fail(err)
				return
			}
			emit("Figure 15: energy consumption by CAPS (normalized)", t)
		},
	}
	tables := map[string]func(){
		"1": func() { fmt.Fprintf(stdout, "== Table I ==\n%s\n", experiments.TableI(cfg)) },
		"2": func() { fmt.Fprintf(stdout, "== Table II ==\n%s\n", experiments.TableII(cfg)) },
		"3": func() { fmt.Fprintf(stdout, "== Table III ==\n%s\n", experiments.TableIII(cfg)) },
		"4": func() { emit("Table IV: workloads", experiments.TableIV()) },
	}

	ablations := map[string]func() (*stats.Table, error){
		"tables":    func() (*stats.Table, error) { return experiments.AblationTableSize(cfg, nil) },
		"buffer":    func() (*stats.Table, error) { return experiments.AblationPrefetchBuffer(cfg, nil) },
		"threshold": func() (*stats.Table, error) { return experiments.AblationMispredictThreshold(cfg, nil) },
		"wakeup":    func() (*stats.Table, error) { return experiments.AblationWakeup(cfg) },
		"occupancy": func() (*stats.Table, error) { return experiments.AblationOccupancy(cfg) },
	}

	ran := false
	if *all {
		for _, id := range []string{"1", "2", "3", "4"} {
			tables[id]()
		}
		for _, id := range []string{"1", "4", "10", "11", "12", "13", "14a", "14b", "15"} {
			figures[id]()
		}
		ran = true
	}
	if !*all && *abl != "" {
		if f, ok := ablations[*abl]; !ok {
			fail(fmt.Errorf("unknown ablation %q", *abl))
		} else if t, err := f(); err != nil {
			fail(err)
		} else {
			emit("Ablation: "+*abl, t)
		}
		ran = true
	}
	if !*all && *fig != "" {
		for _, id := range strings.Split(*fig, ",") {
			f, ok := figures[id]
			if !ok {
				fail(fmt.Errorf("unknown figure %q", id))
				continue
			}
			f()
		}
		ran = true
	}
	if !*all && *table != "" {
		f, ok := tables[*table]
		if !ok {
			fail(fmt.Errorf("unknown table %q", *table))
		} else {
			f()
		}
		ran = true
	}
	if !ran {
		fs.Usage()
		return 2
	}

	// Partial-failure summary: drivers keep going past a broken run, but a
	// sweep that lost any run reports what failed and exits non-zero.
	if fails := suite.Failures(); len(fails) > 0 {
		fmt.Fprintf(stderr, "capsweep: %d run(s) failed:\n", len(fails))
		for _, f := range fails {
			fmt.Fprintf(stderr, "  %-30s %v\n", f.Key.Name(), f.Err)
		}
		failed.Store(true)
	}
	if failed.Load() {
		return 1
	}
	return 0
}

// exportRun writes <dir>/<run>.trace.json (Chrome trace-event format) and
// <dir>/<run>.metrics.csv for one completed simulation.
func exportRun(dir string, k experiments.RunKey, s *obs.Sink) error {
	name := k.Name()
	tf, err := os.Create(filepath.Join(dir, name+".trace.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(tf, s); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	mf, err := os.Create(filepath.Join(dir, name+".metrics.csv"))
	if err != nil {
		return err
	}
	if err := obs.WriteCSV(mf, s.Snapshot()); err != nil {
		mf.Close()
		return err
	}
	return mf.Close()
}

// exportProfile builds and writes <dir>/<run>.profile.json for one
// completed simulation.
func exportProfile(dir string, cfg config.GPUConfig, k experiments.RunKey,
	col *profile.Collector, st *stats.Sim) error {
	if col == nil {
		return fmt.Errorf("%s: no collector registered", k.Name())
	}
	meta := profile.Meta{Bench: k.Bench, Prefetcher: k.Prefetch, Scheduler: string(k.Scheduler), SMs: cfg.NumSMs}
	p, err := col.Build(meta, st)
	if err != nil {
		return err
	}
	return p.WriteFile(filepath.Join(dir, k.Name()+".profile.json"))
}

// lockedWriter serializes writes to w: Warm's workers report per-run
// failures concurrently.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
