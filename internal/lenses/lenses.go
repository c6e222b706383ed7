// Package lenses is the registry of per-run lenses: the profilers that
// ride along one simulation and leave one profile behind (hostprof,
// memlens, schedlens). Every surface that drives a lens loops over All —
// capsim's output flags, capsweep's per-run directories, the experiments
// Suite and capsprof's show and diff subcommands — so a new lens is its own
// package plus one entry here.
//
// capsprof's stall-stack profile (internal/profile) is not a registry
// lens: its diff also reads BENCH_caps.json, and its regressions print in
// their own format.
package lenses

import (
	"flag"
	"fmt"
	"io"

	"caps/internal/config"
	"caps/internal/hostprof"
	"caps/internal/lens"
	"caps/internal/memlens"
	"caps/internal/profile"
	"caps/internal/schedlens"
	"caps/internal/sim"
	"caps/internal/stats"
)

// Profile is one run's finished lens profile.
type Profile interface {
	WriteFile(path string) error
	WriteText(w io.Writer) error
}

// Run labels the run a profile was folded from.
type Run struct {
	Bench, Prefetcher, Scheduler string
}

// ShowStep is a lens's part of `capsprof <Name>` between loading the
// profile and rendering it: it may check the profile, printing its
// verdict, and returns the HTML renderer. A non-zero code ends the
// command with that exit status; the step has printed why.
type ShowStep func(p Profile, path string, stdout, stderr io.Writer) (html func(io.Writer) error, code int)

// Lens describes one lens to every surface that drives it.
type Lens struct {
	// Name is the capsprof subcommand (and Name+"-diff").
	Name string
	// Flag is capsim's output flag and the label of its diagnostics;
	// capsweep's flag is Flag+"-dir".
	Flag string
	// Suffix names capsweep's per-run file, <dir>/<run><Suffix>.
	Suffix string
	// Noun names the profile in capsprof's messages ("<Noun>-profile").
	Noun string
	// SimUsage and SweepUsage document the capsim and capsweep flags;
	// Help is the lens's paragraph of capsprof's usage.
	SimUsage, SweepUsage, Help string
	// Timed marks a lens that measures host wall-clock. Its Validate is
	// statistical, so a Suite keeps the profile without validating it.
	Timed bool

	// Attach sizes a collector for one run's configuration. It returns
	// the simulator option that attaches it and the function that builds
	// the profile once the run has finished.
	Attach func(cfg config.GPUConfig) (sim.Option, func(Run, *stats.Sim) Profile)
	// Validate checks a completed run's profile against its statistics.
	Validate func(Profile, *stats.Sim) error
	// Load reads a profile written by Profile.WriteFile.
	Load func(path string) (Profile, error)
	// Summary describes a profile in capsprof's "wrote <file> (...)" line.
	Summary func(Profile) string
	// Show registers `capsprof <Name>` flags beyond -html on fs and
	// returns the step run on the loaded profile.
	Show func(fs *flag.FlagSet) ShowStep
	// Diff registers the threshold flags of `capsprof <Name>-diff` on fs
	// and returns the gate over two loaded profiles. The gate may print
	// warnings to w before the regressions are listed.
	Diff func(fs *flag.FlagSet) func(base, cur Profile, w io.Writer) []lens.Regression
}

// All is the registry, in the order every surface attaches, builds,
// reports and documents the lenses.
var All = []*Lens{Host, Mem, Sched}

// Host is hostprof: the executor's wall-clock by Step phase, SM tick and
// fast-forward window.
var Host = &Lens{
	Name:       "host",
	Noun:       "host",
	Flag:       "hostprof",
	Suffix:     ".host.json",
	SimUsage:   "self-profile the executor's wall-clock (phase/worker/skip attribution) and write the host profile JSON to this file; a text report goes to stderr",
	SweepUsage: "self-profile every run's executor wall-clock and write <dir>/<run>.host.json (see capsprof host)",
	Help: `  capsprof host <run.host.json> [-html out.html] [-profile run.profile.json] [-validate]
      render a wall-clock self-profile (capsim -hostprof, capsweep
      -hostprof-dir): phase/worker/skip attribution as text, or a
      self-contained HTML report; -profile joins the run's CPI stack in

  capsprof host-diff <base.host.json> <current.host.json> [-wall|-phase|-util frac]
      compare two host profiles and exit 1 on wall-clock, phase-share
      or utilization regressions past thresholds
`,
	Timed: true,
	Attach: func(config.GPUConfig) (sim.Option, func(Run, *stats.Sim) Profile) {
		p := hostprof.New(hostprof.DefaultSampleEvery)
		return sim.WithHostProf(p), func(r Run, _ *stats.Sim) Profile { return p.Build(r.Bench, r.Prefetcher) }
	},
	Validate: func(p Profile, _ *stats.Sim) error {
		return p.(*hostprof.Profile).Validate(hostprof.DefaultTolerance)
	},
	Load: load(hostprof.ReadFile),
	Summary: func(p Profile) string {
		hp := p.(*hostprof.Profile)
		return fmt.Sprintf("%s/%s, %d workers", hp.Bench, hp.Prefetcher, len(hp.Workers))
	},
	Show: func(fs *flag.FlagSet) ShowStep {
		join := fs.String("profile", "", "join this capsprof profile JSON into the HTML report")
		validate := fs.Bool("validate", false, "check accounting invariants (phase sum, sampling coverage)")
		tol := fs.Float64("tolerance", hostprof.DefaultTolerance, "sampling-coverage tolerance for -validate")
		return func(p Profile, path string, stdout, stderr io.Writer) (func(io.Writer) error, int) {
			hp := p.(*hostprof.Profile)
			if *validate {
				if err := hp.Validate(*tol); err != nil {
					fmt.Fprintf(stderr, "capsprof host: %s: %v\n", path, err)
					return nil, 1
				}
				fmt.Fprintf(stdout, "capsprof host: %s: accounting invariants hold (coverage %.0f%%)\n", path, hp.Coverage()*100)
			}
			var sp *profile.Profile
			if *join != "" {
				var err error
				if sp, err = profile.ReadFile(*join); err != nil {
					fmt.Fprintln(stderr, "capsprof:", err)
					return nil, 2
				}
			}
			return func(w io.Writer) error { return hp.WriteHTML(w, sp) }, 0
		}
	},
	// Context mismatches (different machine, worker count, fast-forward
	// setting) print first: they usually explain a wall-clock regression.
	Diff: func(fs *flag.FlagSet) func(base, cur Profile, w io.Writer) []lens.Regression {
		var th hostprof.Thresholds // zero fields fall back to hostprof defaults
		fs.Float64Var(&th.WallFrac, "wall", 0, "max fractional wall-clock increase (0 = default)")
		fs.Float64Var(&th.PhaseShareAbs, "phase", 0, "max absolute phase-share increase (0 = default)")
		fs.Float64Var(&th.UtilAbs, "util", 0, "max absolute mean-utilization drop (0 = default)")
		return func(base, cur Profile, w io.Writer) []lens.Regression {
			b, c := base.(*hostprof.Profile), cur.(*hostprof.Profile)
			for _, m := range hostprof.ContextMismatch(b.Host, c.Host) {
				fmt.Fprintf(w, "warning: host context mismatch: %s\n", m)
			}
			return hostprof.Diff(b, c, th)
		}
	},
}

// Mem is memlens: θ/Δ address structure, prefetch timeliness, reuse
// distance and DRAM locality.
var Mem = &Lens{
	Name:       "mem",
	Noun:       "memory",
	Flag:       "memlens",
	Suffix:     ".mem.json",
	SimUsage:   "profile the memory hierarchy (θ/Δ address structure, prefetch timeliness, reuse, DRAM locality) and write the memory profile JSON to this file; a text report goes to stderr",
	SweepUsage: "profile every run's memory hierarchy and write <dir>/<run>.mem.json (see capsprof mem)",
	Help: `  capsprof mem <run.mem.json> [-html out.html]
      render a memory-hierarchy profile (capsim -memlens, capsweep
      -memlens-dir): θ/Δ address structure per load PC, prefetch
      timeliness, reuse distance per cache level, DRAM/queue locality

  capsprof mem-diff <base.mem.json> <current.mem.json> [-explained|-accurate|-rowhit|-reuse|-spread abs]
      compare two memory profiles and exit 1 on explainability,
      prefetch-accuracy, row-hit-rate, reuse, or bank-spread drops
      past thresholds
`,
	Attach: func(cfg config.GPUConfig) (sim.Option, func(Run, *stats.Sim) Profile) {
		c := memlens.ForConfig(cfg)
		return sim.WithMemLens(c), func(r Run, st *stats.Sim) Profile {
			return c.Build(memlens.Meta{Bench: r.Bench, Prefetcher: r.Prefetcher, Cycles: st.Cycles})
		}
	},
	Validate: func(p Profile, st *stats.Sim) error { return p.(*memlens.Profile).Validate(st) },
	Load:     load(memlens.ReadFile),
	Summary: func(p Profile) string {
		mp := p.(*memlens.Profile)
		return fmt.Sprintf("%s/%s, %d load PCs", mp.Meta.Bench, mp.Meta.Prefetcher, len(mp.AddrStructure.PCs))
	},
	Show: plainHTML[*memlens.Profile],
	Diff: func(fs *flag.FlagSet) func(base, cur Profile, w io.Writer) []lens.Regression {
		var th memlens.Thresholds // zero fields fall back to memlens defaults
		fs.Float64Var(&th.ExplainedAbs, "explained", 0, "max absolute θ/Δ explained-fraction drop (0 = default)")
		fs.Float64Var(&th.AccurateAbs, "accurate", 0, "max absolute accurate-prefetch-share drop (0 = default)")
		fs.Float64Var(&th.RowHitAbs, "rowhit", 0, "max absolute row-buffer hit-rate drop (0 = default)")
		fs.Float64Var(&th.ReuseFracAbs, "reuse", 0, "max absolute sampled-reuse-fraction drop per level (0 = default)")
		fs.Float64Var(&th.BankSpreadAbs, "spread", 0, "max absolute bank-spread drop (0 = default)")
		return func(base, cur Profile, _ io.Writer) []lens.Regression {
			return memlens.Diff(base.(*memlens.Profile), cur.(*memlens.Profile), th)
		}
	},
}

// Sched is schedlens: CTA lifetimes, scheduler decisions, CAP/DIST table
// dynamics and leading-warp effectiveness.
var Sched = &Lens{
	Name:       "sched",
	Noun:       "scheduler",
	Flag:       "schedlens",
	Suffix:     ".sched.json",
	SimUsage:   "profile scheduler and CTA decisions (CTA timelines, pick outcomes, CAP/DIST table dynamics, leading-warp effectiveness) and write the scheduler profile JSON to this file; a text report goes to stderr",
	SweepUsage: "profile every run's scheduler/CTA decisions and write <dir>/<run>.sched.json (see capsprof sched)",
	Help: `  capsprof sched <run.sched.json> [-html out.html]
      render a scheduler/CTA-decision profile (capsim -schedlens,
      capsweep -schedlens-dir): CTA lifetime timelines, pick-outcome
      provenance, CAP/DIST table dynamics, leading-warp effectiveness

  capsprof sched-diff <base.sched.json> <current.sched.json> [-effectiveness|-promoted|-ctahit|-disthit|-balance abs]
      compare two scheduler profiles and exit 1 on leading-warp
      effectiveness, promotion-fraction, table-hit-rate, or CTA-balance
      drops past thresholds
`,
	Attach: func(cfg config.GPUConfig) (sim.Option, func(Run, *stats.Sim) Profile) {
		c := schedlens.ForConfig(cfg)
		return sim.WithSchedLens(c), func(r Run, st *stats.Sim) Profile {
			return c.Build(schedlens.Meta{Bench: r.Bench, Prefetcher: r.Prefetcher, Scheduler: r.Scheduler, Cycles: st.Cycles})
		}
	},
	Validate: func(p Profile, st *stats.Sim) error { return p.(*schedlens.Profile).Validate(st) },
	Load:     load(schedlens.ReadFile),
	Summary: func(p Profile) string {
		sp := p.(*schedlens.Profile)
		return fmt.Sprintf("%s/%s, %d CTAs", sp.Meta.Bench, sp.Meta.Prefetcher, sp.Timelines.Launches)
	},
	Show: plainHTML[*schedlens.Profile],
	Diff: func(fs *flag.FlagSet) func(base, cur Profile, w io.Writer) []lens.Regression {
		var th schedlens.Thresholds // zero fields fall back to schedlens defaults
		fs.Float64Var(&th.EffectivenessAbs, "effectiveness", 0, "max absolute leading-warp-effectiveness drop (0 = default)")
		fs.Float64Var(&th.PromotedAbs, "promoted", 0, "max absolute leading-promoted-fraction drop (0 = default)")
		fs.Float64Var(&th.CTAHitAbs, "ctahit", 0, "max absolute CAP hit-rate drop (0 = default)")
		fs.Float64Var(&th.DistHitAbs, "disthit", 0, "max absolute DIST hit-rate drop (0 = default)")
		fs.Float64Var(&th.BalanceAbs, "balance", 0, "max absolute per-SM retire-balance drop (0 = default)")
		return func(base, cur Profile, _ io.Writer) []lens.Regression {
			return schedlens.Diff(base.(*schedlens.Profile), cur.(*schedlens.Profile), th)
		}
	},
}

// load adapts a lens package's ReadFile to the registry's Profile.
func load[P Profile](read func(string) (P, error)) func(string) (Profile, error) {
	return func(path string) (Profile, error) {
		p, err := read(path)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
}

// plainHTML is the show step of a lens whose report takes no flags
// beyond -html.
func plainHTML[P interface{ WriteHTML(io.Writer) error }](*flag.FlagSet) ShowStep {
	return func(p Profile, _ string, _, _ io.Writer) (func(io.Writer) error, int) {
		return p.(P).WriteHTML, 0
	}
}
