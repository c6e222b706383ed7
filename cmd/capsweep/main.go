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
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"

	"caps/internal/config"
	"caps/internal/experiments"
	"caps/internal/hostprof"
	"caps/internal/memlens"
	"caps/internal/obs"
	"caps/internal/profile"
	"caps/internal/runstore"
	"caps/internal/schedlens"
	"caps/internal/sim"
	"caps/internal/stats"
)

func main() {
	var (
		fig        = flag.String("fig", "", "comma-separated figures to regenerate: 1, 4, 10, 11, 12, 13, 14a, 14b, 15")
		table      = flag.String("table", "", "table to regenerate: 1, 2, 3, 4")
		abl        = flag.String("ablation", "", "ablation to run: tables, buffer, threshold, wakeup, occupancy")
		all        = flag.Bool("all", false, "regenerate every figure and table")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		insts      = flag.Int64("insts", 0, "override the per-run instruction cap")
		par        = flag.Int("par", 0, "parallel simulations (default: GOMAXPROCS)")
		benches    = flag.String("benches", "", "comma-separated benchmark subset (default: all 16)")
		traceDir   = flag.String("trace-dir", "", "write a Chrome trace + metrics CSV per run into this directory")
		profileDir = flag.String("profile-dir", "", "write a capsprof profile JSON per run into this directory")
		benchJSON  = flag.String("bench-json", "", "run the CAPS suite and write BENCH_caps.json-style metrics to this file, then exit")
		speedJSON  = flag.String("speed-json", "", "time every benchmark serial-vs-tuned (-workers/-idle-skip), verify identical stats, write BENCH_speed.json-style timings to this file, then exit")
		storeDir   = flag.String("store", "", "record every completed run (stats + profile) into this run store directory (see capsd)")
		flightDir  = flag.String("flight-dir", "", "attach a flight recorder to every run; a run that dies leaves <dir>/<run>.flight.jsonl (see capscope)")
		hprofDir   = flag.String("hostprof-dir", "", "self-profile every run's executor wall-clock and write <dir>/<run>.host.json (see capsprof host)")
		mlensDir   = flag.String("memlens-dir", "", "profile every run's memory hierarchy and write <dir>/<run>.mem.json (see capsprof mem)")
		slensDir   = flag.String("schedlens-dir", "", "profile every run's scheduler/CTA decisions and write <dir>/<run>.sched.json (see capsprof sched)")
	)
	sf := experiments.AddSimFlags(flag.CommandLine)
	flag.Parse()

	cfg := config.Default()
	if *insts > 0 {
		cfg.MaxInsts = *insts
	}
	var benchList []string
	if *benches != "" {
		benchList = strings.Split(*benches, ",")
	}
	if *speedJSON != "" {
		rep, err := experiments.BuildSpeedReport(cfg, benchList, sf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capsweep:", err)
			os.Exit(1)
		}
		if err := rep.WriteFile(*speedJSON); err != nil {
			fmt.Fprintln(os.Stderr, "capsweep:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks, aggregate speedup %.2fx at workers=%d idle-skip=%v)\n",
			*speedJSON, len(rep.Entries), rep.Speedup, rep.Workers, rep.IdleSkip)
		return
	}
	// -workers/-idle-skip reach every run; suite parallelism derates to
	// GOMAXPROCS/workers unless -par pins it explicitly.
	opts := sf.SuiteOptions(*par)
	if len(benchList) > 0 {
		opts = append(opts, experiments.WithBenches(benchList))
	}
	if *traceDir != "" || *profileDir != "" {
		for _, dir := range []string{*traceDir, *profileDir} {
			if dir == "" {
				continue
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "capsweep:", err)
				os.Exit(1)
			}
		}
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
						fmt.Fprintln(os.Stderr, "capsweep: trace export:", err)
					}
				}
				if *profileDir != "" {
					mu.Lock()
					col := collectors[k]
					mu.Unlock()
					if err := exportProfile(*profileDir, cfg, k, col, st); err != nil {
						fmt.Fprintln(os.Stderr, "capsweep: profile export:", err)
					}
				}
			},
		))
	}
	exitCode := 0
	if *storeDir != "" {
		store, err := runstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capsweep:", err)
			os.Exit(1)
		}
		opts = append(opts, experiments.WithRunStore(store, func(k experiments.RunKey, err error) {
			fmt.Fprintf(os.Stderr, "capsweep: store %s: %v\n", k.Name(), err)
			exitCode = 1
		}))
	}
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "capsweep:", err)
			os.Exit(1)
		}
		opts = append(opts, experiments.WithFlight(*flightDir, func(k experiments.RunKey, err error) {
			fmt.Fprintf(os.Stderr, "capsweep: flight %s: %v\n", k.Name(), err)
		}))
	}
	if *hprofDir != "" {
		if err := os.MkdirAll(*hprofDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "capsweep:", err)
			os.Exit(1)
		}
		opts = append(opts, experiments.WithHostProf(func(k experiments.RunKey, hp *hostprof.Profile) {
			if err := hp.WriteFile(filepath.Join(*hprofDir, k.Name()+".host.json")); err != nil {
				fmt.Fprintf(os.Stderr, "capsweep: hostprof %s: %v\n", k.Name(), err)
				exitCode = 1
			}
		}))
	}
	if *mlensDir != "" {
		if err := os.MkdirAll(*mlensDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "capsweep:", err)
			os.Exit(1)
		}
		opts = append(opts, experiments.WithMemLens(func(k experiments.RunKey, mp *memlens.Profile) {
			if err := mp.WriteFile(filepath.Join(*mlensDir, k.Name()+".mem.json")); err != nil {
				fmt.Fprintf(os.Stderr, "capsweep: memlens %s: %v\n", k.Name(), err)
				exitCode = 1
			}
		}))
	}
	if *slensDir != "" {
		if err := os.MkdirAll(*slensDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "capsweep:", err)
			os.Exit(1)
		}
		opts = append(opts, experiments.WithSchedLens(func(k experiments.RunKey, sp *schedlens.Profile) {
			if err := sp.WriteFile(filepath.Join(*slensDir, k.Name()+".sched.json")); err != nil {
				fmt.Fprintf(os.Stderr, "capsweep: schedlens %s: %v\n", k.Name(), err)
				exitCode = 1
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
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "capsweep: interrupt: stopping in-flight runs (press ^C again to kill)")
		suite.Interrupt()
		<-sigCh
		os.Exit(130)
	}()

	if *benchJSON != "" {
		rep, err := suite.BuildBenchReport()
		if err != nil {
			fmt.Fprintln(os.Stderr, "capsweep:", err)
			os.Exit(1)
		}
		if err := rep.WriteFile(*benchJSON); err != nil {
			fmt.Fprintln(os.Stderr, "capsweep:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *benchJSON, len(rep.Benchmarks))
		return
	}

	emit := func(title string, t *stats.Table) {
		fmt.Printf("== %s ==\n", title)
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.String())
		}
		fmt.Println()
	}
	// fail reports a driver error and marks the sweep partially failed, but
	// does not exit: remaining figures still run, and the failure summary
	// at the end carries the non-zero verdict.
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "capsweep:", err)
		exitCode = 1
	}

	figures := map[string]func(){
		"1": func() {
			t, err := experiments.Figure1(cfg, 10, sf.SimOptions()...)
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
		"1": func() { fmt.Printf("== Table I ==\n%s\n", experiments.TableI(cfg)) },
		"2": func() { fmt.Printf("== Table II ==\n%s\n", experiments.TableII(cfg)) },
		"3": func() { fmt.Printf("== Table III ==\n%s\n", experiments.TableIII(cfg)) },
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
		flag.Usage()
		os.Exit(2)
	}

	// Partial-failure summary: drivers keep going past a broken run, but a
	// sweep that lost any run reports what failed and exits non-zero.
	if fails := suite.Failures(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "capsweep: %d run(s) failed:\n", len(fails))
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "  %-30s %v\n", f.Key.Name(), f.Err)
		}
		exitCode = 1
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
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
