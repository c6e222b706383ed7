// Command capscope is the post-mortem half of the observability stack: it
// decodes flight-recorder black boxes, drives the cycle-level divergence
// localizer, and smoke-tests the whole dump pipeline.
//
// Usage:
//
//	capscope decode crash.flight.jsonl               # human-readable summary
//	capscope decode -trace out.json crash.flight.jsonl   # re-render as Chrome trace
//	capscope bisect -bench MM -perturb 40000         # localize a seeded divergence
//	capscope smoke                                   # end-to-end dump pipeline check
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"caps/internal/config"
	"caps/internal/flight"
	"caps/internal/invariant/determinism"
	"caps/internal/kernels"
	"caps/internal/obs"
	"caps/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body, with each subcommand on its own flag set so tests
// can drive the command line. It returns the exit status: 0 clean, 1 a
// failed run or unreadable dump, 2 a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	c := cli{stdout, stderr}
	switch args[0] {
	case "decode":
		return c.decode(args[1:])
	case "bisect":
		return c.bisect(args[1:])
	case "smoke":
		return c.smoke(args[1:])
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "capscope: unknown command %q\n\n", args[0])
		usage(stderr)
		return 2
	}
}

// cli carries the command's two streams to the subcommands.
type cli struct{ stdout, stderr io.Writer }

// parse parses a subcommand's flags, reporting the exit status to return
// at once (0 for -h, 2 for a bad flag) when parsing ends the command.
func (c cli) parse(fs *flag.FlagSet, args []string) (int, bool) {
	fs.SetOutput(c.stderr)
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	case err != nil:
		return 2, false
	}
	return 0, true
}

func usage(w io.Writer) {
	fmt.Fprint(w, `capscope: flight-recorder black boxes and divergence localization

  capscope decode [-trace FILE] <dump.flight.jsonl>
      summarize a flight dump; -trace re-renders its event window as a
      Chrome trace-event file (open in Perfetto / chrome://tracing)

  capscope bisect -bench B [-prefetch P] [-insts N] [-every K]
                  -perturb CYCLE [-out DIR]
      dual-run a baseline against a copy whose prefetcher is perturbed at
      CYCLE, and localize the first state divergence to an exact cycle;
      -out writes both sides' flight windows as dumps

  capscope smoke
      end-to-end pipeline check: inject a synthetic invariant violation,
      verify the dump is written, decodes, and re-renders as a valid
      Chrome trace
`)
}

// decode summarizes a dump and optionally re-renders it as a Chrome trace.
func (c cli) decode(args []string) int {
	fs := flag.NewFlagSet("capscope decode", flag.ContinueOnError)
	traceOut := fs.String("trace", "", "write the dump's event window as a Chrome trace-event file")
	machine := fs.Bool("machine", true, "print the per-SM machine-state snapshot")
	if code, ok := c.parse(fs, args); !ok {
		return code
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(c.stderr, "capscope decode: exactly one dump file required")
		return 2
	}
	d, err := flight.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(c.stderr, "capscope:", err)
		return 1
	}
	printSummary(c.stdout, d)
	if *machine && d.Header.Machine != nil {
		printMachine(c.stdout, d.Header.Machine)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(c.stderr, "capscope:", err)
			return 1
		}
		if err := d.WriteChromeTrace(f); err != nil {
			f.Close()
			fmt.Fprintln(c.stderr, "capscope:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(c.stderr, "capscope:", err)
			return 1
		}
		fmt.Fprintf(c.stdout, "wrote %s (%d events)\n", *traceOut, len(d.Events))
	}
	return 0
}

func printSummary(w io.Writer, d *flight.Dump) {
	h := &d.Header
	fmt.Fprintf(w, "reason        %s\n", h.Reason)
	if h.Message != "" {
		fmt.Fprintf(w, "message       %s\n", h.Message)
	}
	fmt.Fprintf(w, "run           %s/%s/%s\n", orDash(h.Bench), orDash(h.Prefetcher), orDash(h.Scheduler))
	fmt.Fprintf(w, "cycle         %d\n", h.Cycle)
	fmt.Fprintf(w, "instructions  %d\n", h.Instructions)
	fmt.Fprintf(w, "geometry      %d SMs, %d partitions, %d channels\n", h.SMs, h.Partitions, h.Channels)
	fmt.Fprintf(w, "events        %d (overwritten %d)\n", h.Events, h.Overwritten)
	if h.SynthesizedEnds > 0 || h.OrphanEnds > 0 {
		fmt.Fprintf(w, "stall repair  %d ends synthesized, %d orphan ends dropped\n", h.SynthesizedEnds, h.OrphanEnds)
	}
}

func printMachine(w io.Writer, m *flight.MachineState) {
	fmt.Fprintf(w, "machine state at cycle %d:\n", m.Cycle)
	fmt.Fprintf(w, "  %-4s %5s %5s %5s %6s %5s %6s %6s %6s  %s\n",
		"SM", "WARPS", "CTAS", "LSU", "STORE", "PREF", "MSHR", "PFMSHR", "MISSQ", "SCHED READY/PENDING")
	for i := range m.SMs {
		s := &m.SMs[i]
		fmt.Fprintf(w, "  %-4d %5d %5d %5d %6d %5d %6d %6d %6d  %d/%d\n",
			s.ID, s.LiveWarps, s.ActiveCTAs, s.LSUQueue, s.StoreQueue, s.PrefQueue,
			s.MSHRs, s.PrefetchMSHRs, s.MissQueue, len(s.ReadyQueue), len(s.PendingQueue))
	}
	// The deepest post-mortem question is "who is stuck on what": show the
	// warps still waiting on loads or barriers on each SM.
	for i := range m.SMs {
		s := &m.SMs[i]
		for _, ws := range s.Warps {
			if !ws.WaitLoad && !ws.AtBarrier {
				continue
			}
			state := "wait-load"
			if ws.AtBarrier {
				state = "at-barrier"
			}
			fmt.Fprintf(w, "  sm %d warp %d cta %d pc %#x: %s (outstanding %d, busy-until %d)\n",
				s.ID, ws.Slot, ws.CTA, ws.PC, state, ws.Outstanding, ws.BusyUntil)
		}
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// bisect seeds a single-cycle prefetch perturbation into side B and asks
// the localizer for the exact first divergent cycle.
func (c cli) bisect(args []string) int {
	fs := flag.NewFlagSet("capscope bisect", flag.ContinueOnError)
	bench := fs.String("bench", "MM", "benchmark abbreviation")
	pf := fs.String("prefetch", "caps", "prefetcher for both sides")
	insts := fs.Int64("insts", 200_000, "per-run instruction cap")
	every := fs.Int64("every", 4096, "checkpoint interval in cycles (rounded up to a power of two)")
	perturb := fs.Int64("perturb", 0, "perturb side B's first prefetch at or after this cycle (required)")
	outDir := fs.String("out", "", "write both sides' flight windows into this directory")
	if code, ok := c.parse(fs, args); !ok {
		return code
	}
	if *perturb <= 0 {
		fmt.Fprintln(c.stderr, "capscope bisect: -perturb CYCLE is required (the seeded divergence point)")
		return 2
	}
	if *every > sim.MaxProgressEvery {
		fmt.Fprintf(c.stderr, "capscope bisect: -every %d exceeds the maximum %d\n", *every, sim.MaxProgressEvery)
		return 2
	}

	cfg := config.Default()
	cfg.MaxInsts = *insts
	a := determinism.Side{Label: "baseline", Cfg: cfg, Opts: []sim.Option{sim.WithPrefetcher(*pf)}}
	b := determinism.Side{Label: "perturbed", Cfg: cfg, Opts: []sim.Option{sim.WithPrefetcher(*pf), sim.WithPerturbPrefetchAt(*perturb)}}

	d, err := determinism.Bisect(*bench, a, b, *every)
	if err != nil {
		fmt.Fprintln(c.stderr, "capscope:", err)
		return 1
	}
	if d == nil {
		fmt.Fprintf(c.stdout, "%s: no divergence (the perturbation never fired or never changed state)\n", *bench)
		return 0
	}
	fmt.Fprintf(c.stdout, "%s: first divergent cycle %d (checkpoint window ending at %d, interval %d)\n",
		d.Bench, d.Cycle, d.CheckpointCycle, d.Every)
	fmt.Fprintf(c.stdout, "  state hash A %#016x\n  state hash B %#016x\n", d.HashA, d.HashB)
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(c.stderr, "capscope:", err)
			return 1
		}
		for _, side := range []struct {
			label string
			dump  *flight.Dump
		}{{a.Label, d.WindowA}, {b.Label, d.WindowB}} {
			if side.dump == nil {
				continue
			}
			path := filepath.Join(*outDir, fmt.Sprintf("%s-%s.flight.jsonl", *bench, side.label))
			if err := side.dump.WriteFile(path); err != nil {
				fmt.Fprintln(c.stderr, "capscope:", err)
				return 1
			}
			fmt.Fprintf(c.stdout, "  wrote %s (%d events)\n", path, len(side.dump.Events))
		}
	}
	return 0
}

// smoke exercises the whole dump pipeline in-process: a synthetic
// invariant violation must produce a dump that writes, reads back, and
// re-renders as a Chrome trace the validator accepts.
func (c cli) smoke(args []string) int {
	fs := flag.NewFlagSet("capscope smoke", flag.ContinueOnError)
	keep := fs.String("keep", "", "keep the smoke dump at this path instead of a temp file")
	if code, ok := c.parse(fs, args); !ok {
		return code
	}

	cfg := config.Default()
	cfg.NumSMs = 4
	cfg.MaxInsts = 200_000
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		fmt.Fprintln(c.stderr, "capscope smoke:", err)
		return 1
	}

	var dump *flight.Dump
	g, err := sim.New(cfg, k,
		sim.WithPrefetcher("caps"),
		sim.WithFlight(sim.NewFlightRecorder(cfg)),
		sim.WithOnDump(func(d *flight.Dump) { dump = d }),
		sim.WithInjectViolation(20_000),
	)
	if err != nil {
		fmt.Fprintln(c.stderr, "capscope smoke:", err)
		return 1
	}
	if _, err := g.Run(); err == nil {
		fmt.Fprintln(c.stderr, "capscope smoke: injected violation did not abort the run")
		return 1
	}
	if dump == nil {
		fmt.Fprintln(c.stderr, "capscope smoke: abort produced no flight dump")
		return 1
	}
	if dump.Header.Reason != flight.ReasonViolation {
		fmt.Fprintf(c.stderr, "capscope smoke: dump reason %q, want %q\n", dump.Header.Reason, flight.ReasonViolation)
		return 1
	}
	if len(dump.Events) == 0 {
		fmt.Fprintln(c.stderr, "capscope smoke: dump carries no events")
		return 1
	}

	path := *keep
	if path == "" {
		f, err := os.CreateTemp("", "capscope-smoke-*.flight.jsonl")
		if err != nil {
			fmt.Fprintln(c.stderr, "capscope smoke:", err)
			return 1
		}
		path = f.Name()
		f.Close()
		defer os.Remove(path)
	}
	if err := dump.WriteFile(path); err != nil {
		fmt.Fprintln(c.stderr, "capscope smoke:", err)
		return 1
	}
	back, err := flight.ReadFile(path)
	if err != nil {
		fmt.Fprintln(c.stderr, "capscope smoke: round-trip:", err)
		return 1
	}
	// Header holds a *MachineState, so compare value copies with the
	// pointer cleared; the snapshot itself is covered by the SM count.
	ha, hb := dump.Header, back.Header
	ha.Machine, hb.Machine = nil, nil
	if len(back.Events) != len(dump.Events) || ha != hb ||
		back.Header.Machine == nil || len(back.Header.Machine.SMs) != cfg.NumSMs {
		fmt.Fprintln(c.stderr, "capscope smoke: round-trip mismatch: decoded dump differs from original")
		return 1
	}

	var buf bytes.Buffer
	if err := back.WriteChromeTrace(&buf); err != nil {
		fmt.Fprintln(c.stderr, "capscope smoke: chrome export:", err)
		return 1
	}
	sum, err := obs.ValidateChromeTrace(&buf)
	if err != nil {
		fmt.Fprintln(c.stderr, "capscope smoke: chrome validate:", err)
		return 1
	}
	fmt.Fprintf(c.stdout, "capscope smoke ok: violation at cycle %d -> dump (%d events, %d stall ends synthesized) -> decode -> chrome trace (%d events, %d/%d stall pairs)\n",
		dump.Header.Cycle, len(dump.Events), dump.Header.SynthesizedEnds, sum.Events, sum.StallBegins, sum.StallEnds)
	return 0
}
