// Command capsim runs one benchmark under one prefetcher/scheduler
// configuration and prints the collected statistics.
//
// Usage:
//
//	capsim -bench CNV -prefetch caps [-sched pas] [-ctas 8] [-insts 1000000]
//	capsim -bench MM -prefetch caps -trace out.json -metrics out.csv
//	capsim -bench CNV -prefetch caps -profile out.profile.json
//	capsim -bench MM -prefetch caps -cpuprofile cpu.pprof
//	capsim -bench MM -prefetch caps -hostprof out.host.json
//	capsim -bench BFS -prefetch caps -memlens out.mem.json
//	capsim -bench BFS -prefetch caps -sched pas -schedlens out.sched.json
//	capsim -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"caps/internal/config"
	"caps/internal/energy"
	"caps/internal/flight"
	"caps/internal/kernels"
	"caps/internal/lenses"
	"caps/internal/obs"
	"caps/internal/prefetch"
	"caps/internal/profile"
	"caps/internal/sched"
	"caps/internal/sim"
	"caps/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body; keeping it a function lets deferred cleanups (pprof
// stop/flush) execute before the process exits, and lets tests drive the
// command line. It returns the exit status: 0 for a completed run, 1 for a
// failed or aborted one, 2 for a usage error, 130 for an interrupt.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench     = fs.String("bench", "CNV", "benchmark abbreviation (see -list)")
		pf        = fs.String("prefetch", "none", "prefetcher (see -list)")
		schedFlg  = fs.String("sched", "", "scheduler: "+strings.Join(sched.Names(), ", ")+" (default: tlv; pas for caps)")
		ctas      = fs.Int("ctas", 0, "override max concurrent CTAs per SM")
		insts     = fs.Int64("insts", 0, "override instruction cap (0 = config default)")
		noWake    = fs.Bool("nowakeup", false, "disable PAS eager warp wake-up")
		list      = fs.Bool("list", false, "list benchmarks, prefetchers and schedulers")
		showCfg   = fs.Bool("config", false, "print the GPU configuration and exit")
		eEnergy   = fs.Bool("energy", false, "print the energy breakdown")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON (load in Perfetto) to this file")
		metOut    = fs.String("metrics", "", "write the metrics snapshot as CSV to this file")
		profOut   = fs.String("profile", "", "write a capsprof profile JSON (stall stacks + per-PC ledger) to this file")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the simulator itself to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile of the simulator itself to this file")
		flightOut = fs.String("flight", "", "attach a flight recorder and write its black box (JSONL, see capscope) to this file when the run dies or SIGQUIT arrives")
		watchdog  = fs.Int64("watchdog", 0, "abort when no instruction retires for this many cycles (0 = default, negative = off)")
		beat      = fs.Int64("beat", 0, "progress-beat / watchdog-poll period in cycles, rounded to a power of two (0 = default 8192)")
	)
	lensOut := make([]*string, len(lenses.All))
	for i, l := range lenses.All {
		lensOut[i] = fs.String(l.Flag, "", l.SimUsage)
	}
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}

	cfg := config.Default()
	if *list {
		fmt.Fprintln(stdout, "benchmarks:")
		for _, k := range kernels.All() {
			fmt.Fprintf(stdout, "  %-4s %s (%s)\n", k.Abbr, k.Name, k.Suite)
		}
		fmt.Fprintln(stdout, "prefetchers:", prefetch.Names())
		fmt.Fprintln(stdout, "schedulers:", sched.Names())
		return 0
	}
	if *showCfg {
		fmt.Fprint(stdout, cfg.TableString())
		return 0
	}

	if !contains(prefetch.Names(), *pf) {
		fmt.Fprintf(stderr, "capsim: unknown prefetcher %q (registered: %s)\n",
			*pf, strings.Join(prefetch.Names(), ", "))
		return 2
	}
	if *schedFlg != "" && !contains(sched.Names(), *schedFlg) {
		fmt.Fprintf(stderr, "capsim: unknown scheduler %q (registered: %s)\n",
			*schedFlg, strings.Join(sched.Names(), ", "))
		return 2
	}
	if *beat > sim.MaxProgressEvery {
		fmt.Fprintf(stderr, "capsim: -beat %d exceeds the maximum %d\n", *beat, sim.MaxProgressEvery)
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
		fmt.Fprintln(stderr, "capsim:", err)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "capsim: cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "capsim: cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	var snk *obs.Sink
	var col *profile.Collector
	if *traceOut != "" || *metOut != "" || *profOut != "" {
		snk = sim.NewSink(cfg, *traceOut != "", obs.DefaultTraceCap)
	}
	if *profOut != "" {
		col = profile.NewCollector(cfg.NumSMs)
		snk.Attach(col)
	}
	opts := []sim.Option{sim.WithPrefetcher(*pf), sim.WithObs(snk),
		sim.WithProgressEvery(*beat), sim.WithWatchdogCycles(*watchdog)}
	builds := make([]func(lenses.Run, *stats.Sim) lenses.Profile, len(lenses.All))
	for i, l := range lenses.All {
		if *lensOut[i] != "" {
			var opt sim.Option
			opt, builds[i] = l.Attach(cfg)
			opts = append(opts, opt)
		}
	}
	if *flightOut != "" {
		opts = append(opts, sim.WithFlight(sim.NewFlightRecorder(cfg)),
			sim.WithOnDump(func(d *flight.Dump) {
				if err := d.WriteFile(*flightOut); err != nil {
					fmt.Fprintln(stderr, "capsim: flight:", err)
					return
				}
				fmt.Fprintf(stderr, "capsim: flight dump (%s) written to %s\n", d.Header.Reason, *flightOut)
			}))
	}
	g, err := sim.New(cfg, k, opts...)
	if err != nil {
		fmt.Fprintln(stderr, "capsim:", err)
		return 1
	}

	// Graceful signals: first SIGINT asks the run to stop at the next beat
	// (partial stats and the requested output files are still written); a
	// second one kills the process. SIGQUIT requests a flight dump without
	// stopping.
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
				fmt.Fprintln(stderr, "capsim: interrupt — stopping at next beat (^C again to kill)")
			}
		}
	}()

	st, err := g.Run()
	aborted := err != nil
	exitCode := 0
	if aborted {
		exitCode = 1
		if errors.Is(err, sim.ErrInterrupted) {
			exitCode = 130
		}
		fmt.Fprintln(stderr, "capsim:", err)
	}
	fmt.Fprintf(stdout, "%s  prefetch=%s  sched=%s\n", k.Abbr, *pf, cfg.Scheduler)
	fmt.Fprint(stdout, st.String())
	if *eEnergy {
		b := energy.Estimate(energy.DefaultParams(), cfg, st, *pf == "caps")
		fmt.Fprintf(stdout, "energy: total=%.4f J  alu=%.4f shared=%.4f l1=%.4f l2=%.4f icnt=%.4f dram=%.4f caps=%.6f static=%.4f\n",
			b.Total(), b.ALU, b.Shared, b.L1, b.L2, b.ICNT, b.DRAM, b.CAPS, b.Static)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(f *os.File) error {
			return obs.WriteChromeTrace(f, snk)
		}); err != nil {
			fmt.Fprintln(stderr, "capsim: trace:", err)
			return 1
		}
		if n := snk.Trace().Dropped(); n > 0 {
			fmt.Fprintf(stderr, "capsim: trace buffer full, dropped %d events (raise obs.DefaultTraceCap)\n", n)
		}
	}
	if *metOut != "" {
		if err := writeFile(*metOut, func(f *os.File) error {
			return obs.WriteCSV(f, snk.Snapshot())
		}); err != nil {
			fmt.Fprintln(stderr, "capsim: metrics:", err)
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
			fmt.Fprintln(stderr, "capsim: profile:", err)
			return 1
		}
	}
	if *profOut != "" {
		if err := prof.WriteFile(*profOut); err != nil {
			fmt.Fprintln(stderr, "capsim: profile:", err)
			return 1
		}
	}
	// A lens profile is written even for an aborted run (the wall-clock
	// spent and the folded events are real), but only a completed one must
	// validate: a partial run legitimately has prefetches and stores in
	// flight, and can sit outside hostprof's sampling-coverage tolerance.
	label := lenses.Run{Bench: k.Abbr, Prefetcher: *pf, Scheduler: string(cfg.Scheduler)}
	for i, l := range lenses.All {
		if builds[i] == nil {
			continue
		}
		p := builds[i](label, st)
		if !aborted {
			if err := l.Validate(p, st); err != nil {
				fmt.Fprintf(stderr, "capsim: %s: accounting invariant violated: %v\n", l.Flag, err)
				return 1
			}
		}
		if err := p.WriteFile(*lensOut[i]); err != nil {
			fmt.Fprintf(stderr, "capsim: %s: %v\n", l.Flag, err)
			return 1
		}
		if err := p.WriteText(stderr); err != nil {
			fmt.Fprintf(stderr, "capsim: %s: %v\n", l.Flag, err)
			return 1
		}
	}
	if *memProf != "" {
		runtime.GC() // settle the heap so the profile reflects retained memory
		if err := writeFile(*memProf, func(f *os.File) error {
			return pprof.WriteHeapProfile(f)
		}); err != nil {
			fmt.Fprintln(stderr, "capsim: memprofile:", err)
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
