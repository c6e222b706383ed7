// Command capsd queries, compares and garbage-collects the persistent run
// store that capsim and capsweep write with -store.
//
// Usage:
//
//	capsd ls     [-store DIR] [-bench MM] [-prefetch caps] [-all]
//	capsd show   [-store DIR] [-json] [-html out.html] <id>
//	capsd diff   [-store DIR] [-ipc-frac F] <base-id> <cur-id>
//	capsd gc     [-store DIR]
//
// Run IDs may be abbreviated to any unique prefix (as printed by ls).
//
// Exit status: 0 when the command succeeds and finds nothing, 1 only when
// diff finds a regression, 2 on a usage error (unknown command, bad flag,
// wrong argument count, unknown run id) or a store error (missing,
// unreadable or unwritable store). A CI gate on `capsd diff` can therefore
// tell a typo from a regression.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"caps/internal/profile"
	"caps/internal/runstore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var regressed bool
	var err error
	switch cmd {
	case "ls":
		err = cmdLs(rest, stdout, stderr)
	case "show":
		err = cmdShow(rest, stdout, stderr)
	case "diff":
		regressed, err = cmdDiff(rest, stdout, stderr)
	case "gc":
		err = cmdGC(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "capsd: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		fmt.Fprintln(stderr, "capsd:", err)
		return 2
	case regressed:
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: capsd <command> [flags]

commands:
  ls       list stored runs
  show     print one stored run (-json for the full record, -html for a report)
  diff     compare two stored runs; exit 1 when the second regresses
  gc       drop superseded records from the store log

exit status: 0 clean, 1 diff regression, 2 usage or store error`)
}

// newFlags returns a subcommand's flag set, reporting to stderr, with the
// shared -store flag registered.
func newFlags(name string, stderr io.Writer) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs, fs.String("store", runstore.DefaultDir, "run store directory")
}

func openStore(dir string) (*runstore.Store, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("no run store at %s (run capsweep/capsim with -store, or pass -store DIR)", dir)
	}
	return runstore.Open(dir)
}

func cmdLs(args []string, stdout, stderr io.Writer) error {
	fs, dir := newFlags("ls", stderr)
	bench := fs.String("bench", "", "filter by benchmark")
	pf := fs.String("prefetch", "", "filter by prefetcher")
	all := fs.Bool("all", false, "include superseded records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	entries := store.List(runstore.Query{Bench: *bench, Prefetcher: *pf, All: *all})
	if len(entries) == 0 {
		fmt.Fprintln(stdout, "no stored runs")
		return nil
	}
	fmt.Fprintf(stdout, "%-16s %-5s %-8s %-5s %12s %8s %8s %8s %-12s %s\n",
		"ID", "BENCH", "PREFETCH", "SCHED", "CYCLES", "IPC", "COVER", "ACCUR", "GITREV", "CREATED")
	for _, e := range entries {
		mark := ""
		if e.Aborted {
			mark = "  ABORTED"
		}
		fmt.Fprintf(stdout, "%-16s %-5s %-8s %-5s %12d %8.4f %8.4f %8.4f %-12s %s%s\n",
			e.ID, e.Bench, e.Prefetcher, e.Scheduler, e.Cycles, e.IPC, e.Coverage, e.Accuracy,
			orDash(e.GitRev), time.Unix(e.CreatedAt, 0).UTC().Format("2006-01-02 15:04"), mark)
	}
	return nil
}

func cmdShow(args []string, stdout, stderr io.Writer) error {
	fs, dir := newFlags("show", stderr)
	asJSON := fs.Bool("json", false, "print the full record as JSON")
	htmlOut := fs.String("html", "", "write the run's profile report (capsprof HTML) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("show: want exactly one run id, got %d", fs.NArg())
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	rec, err := store.Get(fs.Arg(0))
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	}
	fmt.Fprintf(stdout, "run       %s\n", rec.ID)
	fmt.Fprintf(stdout, "bench     %s  prefetch=%s  sched=%s\n", rec.Bench, rec.Prefetcher, rec.Scheduler)
	fmt.Fprintf(stdout, "config    %s  gitrev=%s  created=%s\n", rec.ConfigHash, orDash(rec.GitRev),
		time.Unix(rec.CreatedAt, 0).UTC().Format(time.RFC3339))
	fmt.Fprintf(stdout, "cycles    %d\ninsts     %d\nipc       %.4f\ncoverage  %.4f\naccuracy  %.4f\n",
		rec.Cycles, rec.Instructions, rec.IPC, rec.Coverage, rec.Accuracy)
	if rec.Aborted {
		fmt.Fprintf(stdout, "aborted   %s\n", orDash(rec.AbortReason))
		if rec.FlightDump != "" {
			fmt.Fprintf(stdout, "flight    %s  (decode with: capscope decode %s)\n", rec.FlightDump, rec.FlightDump)
		}
	}
	if rec.Profile == nil {
		fmt.Fprintln(stdout, "profile   (none)")
	} else {
		fmt.Fprintf(stdout, "profile   %d PCs, %d CTAs, %d SM stacks\n",
			len(rec.Profile.PCs), len(rec.Profile.CTAs), len(rec.Profile.SMs))
	}
	if *htmlOut != "" {
		if rec.Profile == nil {
			return fmt.Errorf("show: run %s has no profile to render", rec.ID)
		}
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		if err := profile.WriteHTML(f, rec.Profile); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *htmlOut)
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// cmdDiff compares two stored runs with the capsprof gate. The returned
// bool reports whether any metric regressed (the caller exits 1).
func cmdDiff(args []string, stdout, stderr io.Writer) (bool, error) {
	fs, dir := newFlags("diff", stderr)
	ipcFrac := fs.Float64("ipc-frac", profile.DefaultThresholds().IPCFrac, "max tolerated fractional IPC drop")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("diff: want <base-id> <cur-id>, got %d args", fs.NArg())
	}
	store, err := openStore(*dir)
	if err != nil {
		return false, err
	}
	base, err := store.Get(fs.Arg(0))
	if err != nil {
		return false, err
	}
	cur, err := store.Get(fs.Arg(1))
	if err != nil {
		return false, err
	}
	th := profile.DefaultThresholds()
	th.IPCFrac = *ipcFrac
	regs := profile.Diff(profileOf(base), profileOf(cur), th)
	fmt.Fprintf(stdout, "base %s  %s/%s  ipc=%.4f\ncur  %s  %s/%s  ipc=%.4f\n",
		base.ID, base.Bench, base.Prefetcher, base.IPC,
		cur.ID, cur.Bench, cur.Prefetcher, cur.IPC)
	if base.Profile == nil || cur.Profile == nil {
		fmt.Fprintln(stdout, "note: one side has no stored profile; headline metrics only, stall stacks not gated")
	}
	if len(regs) == 0 {
		fmt.Fprintln(stdout, "no regressions")
		return false, nil
	}
	fmt.Fprintf(stdout, "%d regression(s):\n", len(regs))
	for _, r := range regs {
		fmt.Fprintln(stdout, "  "+r.String())
	}
	return true, nil
}

// profileOf returns the record's stored profile, or synthesizes a
// headline-only one when the record was stored without it, so the diff
// gate still covers IPC, coverage and accuracy.
func profileOf(r *runstore.Record) *profile.Profile {
	if r.Profile != nil {
		return r.Profile
	}
	return &profile.Profile{
		Meta:         profile.Meta{Bench: r.Bench, Prefetcher: r.Prefetcher, Scheduler: r.Scheduler},
		TotalCycles:  r.Cycles,
		Instructions: r.Instructions,
		IPC:          r.IPC,
		Coverage:     r.Coverage,
		Accuracy:     r.Accuracy,
	}
}

func cmdGC(args []string, stdout, stderr io.Writer) error {
	fs, dir := newFlags("gc", stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(*dir)
	if err != nil {
		return err
	}
	removed, err := store.GC()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dropped %d superseded record(s), %d live\n", removed, store.Len())
	return nil
}
