// Command capsim runs one benchmark under one prefetcher/scheduler
// configuration and prints the collected statistics.
//
// Usage:
//
//	capsim -bench CNV -prefetch caps [-sched pas] [-ctas 8] [-insts 1000000]
//	capsim -bench MM -prefetch caps -trace out.json -metrics out.csv
//	capsim -bench CNV -prefetch caps -profile out.profile.json
//	capsim -bench MM -prefetch caps -cpuprofile cpu.pprof
//	capsim -bench MM -prefetch caps -workers 4 -idle-skip -hostprof out.host.json
//	capsim -bench BFS -prefetch caps -memlens out.mem.json
//	capsim -bench BFS -prefetch caps -sched pas -schedlens out.sched.json
//	capsim -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"caps/internal/config"
	"caps/internal/energy"
	"caps/internal/experiments"
	"caps/internal/flight"
	"caps/internal/hostprof"
	"caps/internal/kernels"
	"caps/internal/memlens"
	"caps/internal/obs"
	"caps/internal/prefetch"
	"caps/internal/profile"
	"caps/internal/runstore"
	"caps/internal/sched"
	"caps/internal/schedlens"
	"caps/internal/sim"
	"caps/internal/telemetry"
)

func main() {
	os.Exit(run())
}

// run is main's body; keeping it a function lets deferred cleanups (pprof
// stop/flush) execute before the process exits.
func run() int {
	var (
		bench     = flag.String("bench", "CNV", "benchmark abbreviation (see -list)")
		pf        = flag.String("prefetch", "none", "prefetcher (see -list)")
		schedFlg  = flag.String("sched", "", "scheduler: "+strings.Join(sched.Names(), ", ")+" (default: tlv; pas for caps)")
		ctas      = flag.Int("ctas", 0, "override max concurrent CTAs per SM")
		insts     = flag.Int64("insts", 0, "override instruction cap (0 = config default)")
		noWake    = flag.Bool("nowakeup", false, "disable PAS eager warp wake-up")
		list      = flag.Bool("list", false, "list benchmarks, prefetchers and schedulers")
		showCfg   = flag.Bool("config", false, "print the GPU configuration and exit")
		eEnergy   = flag.Bool("energy", false, "print the energy breakdown")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON (load in Perfetto) to this file")
		metOut    = flag.String("metrics", "", "write the metrics snapshot as CSV to this file")
		profOut   = flag.String("profile", "", "write a capsprof profile JSON (stall stacks + per-PC ledger) to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator itself to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile of the simulator itself to this file")
		serveAdr  = flag.String("serve", "", "serve live telemetry (/metrics, /events, /debug/pprof) on this address while the run executes")
		storeDir  = flag.String("store", "", "record the completed run (stats + profile) into this run store directory (see capsd)")
		flightOut = flag.String("flight", "", "attach a flight recorder and write its black box (JSONL, see capscope) to this file when the run dies or SIGQUIT arrives")
		watchdog  = flag.Int64("watchdog", 0, "abort when no instruction retires for this many cycles (0 = default, negative = off)")
		beat      = flag.Int64("beat", 0, "progress-beat / watchdog-poll period in cycles, rounded to a power of two (0 = default 8192)")
		hprofOut  = flag.String("hostprof", "", "self-profile the executor's wall-clock (phase/worker/skip attribution) and write the host profile JSON to this file; a text report goes to stderr")
		mlensOut  = flag.String("memlens", "", "profile the memory hierarchy (θ/Δ address structure, prefetch timeliness, reuse, DRAM locality) and write the memory profile JSON to this file; a text report goes to stderr")
		slensOut  = flag.String("schedlens", "", "profile scheduler and CTA decisions (CTA timelines, pick outcomes, CAP/DIST table dynamics, leading-warp effectiveness) and write the scheduler profile JSON to this file; a text report goes to stderr")
	)
	sf := experiments.AddSimFlags(flag.CommandLine)
	flag.Parse()

	cfg := config.Default()
	if *list {
		fmt.Println("benchmarks:")
		for _, k := range kernels.All() {
			fmt.Printf("  %-4s %s (%s)\n", k.Abbr, k.Name, k.Suite)
		}
		fmt.Println("prefetchers:", prefetch.Names())
		fmt.Println("schedulers:", sched.Names())
		return 0
	}
	if *showCfg {
		fmt.Print(cfg.TableString())
		return 0
	}

	if !contains(prefetch.Names(), *pf) {
		fmt.Fprintf(os.Stderr, "capsim: unknown prefetcher %q (registered: %s)\n",
			*pf, strings.Join(prefetch.Names(), ", "))
		return 2
	}
	if *schedFlg != "" && !contains(sched.Names(), *schedFlg) {
		fmt.Fprintf(os.Stderr, "capsim: unknown scheduler %q (registered: %s)\n",
			*schedFlg, strings.Join(sched.Names(), ", "))
		return 2
	}
	if *beat > sim.MaxProgressEvery {
		fmt.Fprintf(os.Stderr, "capsim: -beat %d exceeds the maximum %d\n", *beat, sim.MaxProgressEvery)
		return 2
	}

	o := config.Overrides{
		MaxCTAsPerSM:  *ctas,
		MaxInsts:      *insts,
		DisableWakeup: *noWake,
	}
	if *schedFlg != "" {
		o.Scheduler = config.SchedulerKind(*schedFlg)
	} else if *pf == "caps" {
		o.Scheduler = config.SchedPAS
	}
	cfg = config.Derive(cfg, o)

	k, err := kernels.ByAbbr(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsim:", err)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capsim: cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "capsim: cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	var snk *obs.Sink
	var col *profile.Collector
	if *traceOut != "" || *metOut != "" || *profOut != "" || *serveAdr != "" || *storeDir != "" {
		snk = sim.NewSink(cfg, *traceOut != "", obs.DefaultTraceCap)
	}
	if *profOut != "" || *storeDir != "" {
		col = profile.NewCollector(cfg.NumSMs)
		snk.Attach(col)
	}
	var hprof *hostprof.Profiler
	if *hprofOut != "" {
		hprof = hostprof.New(hostprof.DefaultSampleEvery)
	}
	var mlens *memlens.Collector
	if *mlensOut != "" {
		mlens = memlens.ForConfig(cfg)
	}
	var slens *schedlens.Collector
	if *slensOut != "" {
		slens = schedlens.ForConfig(cfg)
	}
	runID := fmt.Sprintf("%s-%s-%s", k.Abbr, *pf, cfg.Scheduler)
	var srv *telemetry.Server
	if *serveAdr != "" {
		srv = telemetry.NewServer(*serveAdr)
		addr, err := srv.Start()
		if err != nil {
			fmt.Fprintln(os.Stderr, "capsim:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "capsim: telemetry on http://%s\n", addr)
		meta := telemetry.RunMeta{ID: runID, Bench: k.Abbr, Prefetcher: *pf,
			Scheduler: string(cfg.Scheduler), MaxInsts: cfg.MaxInsts}
		rp := telemetry.NewRunProgress(srv.Hub(), meta, snk.Registry())
		if hprof != nil {
			rp.AttachHostProf(hprof)
		}
		snk.Attach(rp)
	}
	opts := []sim.Option{sim.WithPrefetcher(*pf), sim.WithObs(snk),
		sim.WithProgressEvery(*beat), sim.WithWatchdogCycles(*watchdog)}
	if hprof != nil {
		opts = append(opts, sim.WithHostProf(hprof))
	}
	if mlens != nil {
		opts = append(opts, sim.WithMemLens(mlens))
	}
	if slens != nil {
		opts = append(opts, sim.WithSchedLens(slens))
	}
	opts = append(opts, sf.SimOptions()...)
	var dumpPath string
	if *flightOut != "" {
		opts = append(opts, sim.WithFlight(sim.NewFlightRecorder(cfg)),
			sim.WithOnDump(func(d *flight.Dump) {
				if err := d.WriteFile(*flightOut); err != nil {
					fmt.Fprintln(os.Stderr, "capsim: flight:", err)
					return
				}
				dumpPath = *flightOut
				fmt.Fprintf(os.Stderr, "capsim: flight dump (%s) written to %s\n", d.Header.Reason, *flightOut)
			}))
	}
	g, err := sim.New(cfg, k, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsim:", err)
		return 1
	}

	// Graceful signals: first SIGINT asks the run to stop at the next beat
	// (partial stats flushed, store closed cleanly); a second one kills the
	// process. SIGQUIT requests a flight dump without stopping.
	sigCh := make(chan os.Signal, 4)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGQUIT)
	defer signal.Stop(sigCh)
	go func() {
		interrupted := false
		for s := range sigCh {
			switch {
			case s == syscall.SIGQUIT:
				g.RequestDump()
			case interrupted:
				os.Exit(130)
			default:
				interrupted = true
				g.RequestStop()
				fmt.Fprintln(os.Stderr, "capsim: interrupt — stopping at next beat (^C again to kill)")
			}
		}
	}()

	st, err := g.Run()
	aborted := err != nil
	abortReason := ""
	exitCode := 0
	if aborted {
		abortReason = err.Error()
		exitCode = 1
		if errors.Is(err, sim.ErrInterrupted) {
			abortReason = "interrupted"
			exitCode = 130
		}
		fmt.Fprintln(os.Stderr, "capsim:", err)
	}
	if srv != nil {
		meta := telemetry.RunMeta{ID: runID, Bench: k.Abbr, Prefetcher: *pf,
			Scheduler: string(cfg.Scheduler), MaxInsts: cfg.MaxInsts}
		if aborted {
			srv.Hub().RunAborted(meta, st.Cycles, st.Instructions, abortReason, dumpPath, snk.Snapshot())
		} else {
			srv.Hub().RunDone(meta, st.Cycles, st.Instructions, st.IPC(), snk.Snapshot())
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // exiting anyway
		}()
	}
	fmt.Printf("%s  prefetch=%s  sched=%s\n", k.Abbr, *pf, cfg.Scheduler)
	fmt.Print(st.String())
	if *eEnergy {
		b := energy.Estimate(energy.DefaultParams(), cfg, st, *pf == "caps")
		fmt.Printf("energy: total=%.4f J  alu=%.4f shared=%.4f l1=%.4f l2=%.4f icnt=%.4f dram=%.4f caps=%.6f static=%.4f\n",
			b.Total(), b.ALU, b.Shared, b.L1, b.L2, b.ICNT, b.DRAM, b.CAPS, b.Static)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(f *os.File) error {
			return obs.WriteChromeTrace(f, snk)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "capsim: trace:", err)
			return 1
		}
		if n := snk.Trace().Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "capsim: trace buffer full, dropped %d events (raise obs.DefaultTraceCap)\n", n)
		}
	}
	if *metOut != "" {
		if err := writeFile(*metOut, func(f *os.File) error {
			return obs.WriteCSV(f, snk.Snapshot())
		}); err != nil {
			fmt.Fprintln(os.Stderr, "capsim: metrics:", err)
			return 1
		}
	}
	var prof *profile.Profile
	if col != nil && !aborted {
		// An aborted run's stall stacks are mid-cycle partial; the profile
		// validator would reject them, so only completed runs build one.
		meta := profile.Meta{Bench: k.Abbr, Prefetcher: *pf, Scheduler: string(cfg.Scheduler), SMs: cfg.NumSMs}
		prof, err = col.Build(meta, st)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capsim: profile:", err)
			return 1
		}
	}
	if *profOut != "" {
		if err := prof.WriteFile(*profOut); err != nil {
			fmt.Fprintln(os.Stderr, "capsim: profile:", err)
			return 1
		}
	}
	var hostProf *hostprof.Profile
	if hprof != nil {
		// g.Run's deferred Close finalized the profiler; an aborted run's
		// host profile is still written (the wall-clock spent is real), but
		// only a completed one is validated — partial runs can legitimately
		// sit outside the sampling-coverage tolerance.
		hostProf = hprof.Build(k.Abbr, *pf)
		if !aborted {
			if err := hostProf.Validate(hostprof.DefaultTolerance); err != nil {
				fmt.Fprintln(os.Stderr, "capsim: hostprof: accounting invariant violated:", err)
				return 1
			}
		}
		if err := hostProf.WriteFile(*hprofOut); err != nil {
			fmt.Fprintln(os.Stderr, "capsim: hostprof:", err)
			return 1
		}
		if err := hostProf.WriteText(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "capsim: hostprof:", err)
			return 1
		}
	}
	var memLens *memlens.Profile
	if mlens != nil {
		// An aborted run's profile is still written (the folded events are
		// real observations), but only a completed one must reconcile —
		// partial runs legitimately have prefetches and stores in flight.
		memLens = mlens.Build(memlens.Meta{Bench: k.Abbr, Prefetcher: *pf, Cycles: st.Cycles})
		if !aborted {
			if err := memLens.Validate(st); err != nil {
				fmt.Fprintln(os.Stderr, "capsim: memlens: accounting invariant violated:", err)
				return 1
			}
		}
		if err := memLens.WriteFile(*mlensOut); err != nil {
			fmt.Fprintln(os.Stderr, "capsim: memlens:", err)
			return 1
		}
		if err := memLens.WriteText(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "capsim: memlens:", err)
			return 1
		}
	}
	var schedLens *schedlens.Profile
	if slens != nil {
		// Same contract as memlens: an aborted run's profile is written,
		// only a completed one must reconcile.
		schedLens = slens.Build(schedlens.Meta{Bench: k.Abbr, Prefetcher: *pf,
			Scheduler: string(cfg.Scheduler), Cycles: st.Cycles})
		if !aborted {
			if err := schedLens.Validate(st); err != nil {
				fmt.Fprintln(os.Stderr, "capsim: schedlens: accounting invariant violated:", err)
				return 1
			}
		}
		if err := schedLens.WriteFile(*slensOut); err != nil {
			fmt.Fprintln(os.Stderr, "capsim: schedlens:", err)
			return 1
		}
		if err := schedLens.WriteText(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "capsim: schedlens:", err)
			return 1
		}
	}
	if *storeDir != "" {
		store, err := runstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capsim: store:", err)
			return 1
		}
		rec := runstore.NewRecord(cfg, k.Abbr, *pf, st, prof)
		if aborted {
			rec.MarkAborted(abortReason, dumpPath)
		}
		if hostProf != nil {
			rec.AttachHost(hostProf)
		}
		if memLens != nil {
			rec.AttachMem(memLens)
		}
		if schedLens != nil {
			rec.AttachSched(schedLens)
		}
		id, dup, err := store.Put(rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "capsim: store:", err)
			return 1
		}
		if dup {
			fmt.Printf("stored: %s (unchanged, deduplicated)\n", id)
		} else {
			fmt.Printf("stored: %s\n", id)
		}
	}
	if *memProf != "" {
		runtime.GC() // settle the heap so the profile reflects retained memory
		if err := writeFile(*memProf, func(f *os.File) error {
			return pprof.WriteHeapProfile(f)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "capsim: memprofile:", err)
			return 1
		}
	}
	return exitCode
}

func contains(names []string, s string) bool {
	for _, n := range names {
		if n == s {
			return true
		}
	}
	return false
}

func writeFile(path string, write func(*os.File) error) error {
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
