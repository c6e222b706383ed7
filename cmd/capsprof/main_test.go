package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"caps/internal/config"
	"caps/internal/experiments"
	"caps/internal/hostprof"
	"caps/internal/kernels"
	"caps/internal/lenses"
	"caps/internal/memlens"
	"caps/internal/profile"
	"caps/internal/schedlens"
	"caps/internal/sim"
	"caps/internal/stats"
)

// lensFiles are the profiles one short run wrote, plus a copy of each with
// an injected regression.
type lensFiles struct {
	prof, profBad   string
	mem, memBad     string
	sched, schedBad string
	host, hostBad   string
	speed, speedBad string // BENCH_speed.json-style reports
	speedWork       string // the report with one bench's cycles changed
	bench, benchBad string // BENCH_caps.json-style reports of the run's IPC, and halved
	benchNoMM       string // a report that does not list the run's benchmark
}

// simLenses are the lenses whose profiles the short run builds: every
// registry lens but hostprof, whose wall-clock profile cannot be pinned.
var simLenses = []*lenses.Lens{lenses.Stall, lenses.Mem, lenses.Sched}

// shortRun is one short MM run under CAPS with simLenses attached: the run
// every test in this package reads. profs holds each lens's profile by
// lens name.
type shortRun struct {
	cfg   config.GPUConfig
	st    *stats.Sim
	profs map[string]lenses.Profile
}

func runMM(t *testing.T) shortRun {
	t.Helper()
	cfg := config.Default()
	cfg.Scheduler = config.SchedPAS
	cfg.MaxInsts = 40_000
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	opts := []sim.Option{sim.WithPrefetcher("caps")}
	builds := make([]func(lenses.Run, *stats.Sim) lenses.Profile, len(simLenses))
	for i, l := range simLenses {
		var opt sim.Option
		opt, builds[i] = l.Attach(cfg)
		opts = append(opts, opt)
	}
	g, err := sim.New(cfg, k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	r := shortRun{cfg: cfg, st: st, profs: make(map[string]lenses.Profile)}
	run := lenses.Run{Bench: "MM", Prefetcher: "caps", Scheduler: string(cfg.Scheduler)}
	for i, l := range simLenses {
		p := builds[i](run, st)
		if err := l.Validate(p, st); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		r.profs[l.Name] = p
	}
	return r
}

// writeProfiles writes each profile of the short run, then a copy with its
// gated headline metric halved.
func writeProfiles(t *testing.T, dir string) lensFiles {
	t.Helper()
	r := runMM(t)
	cfg, st := r.cfg, r.st

	f := lensFiles{}
	path := func(name string) string { return filepath.Join(dir, name) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	p := r.profs[lenses.Stall.Name].(*profile.Profile)
	f.prof, f.profBad = path("run.profile.json"), path("bad.profile.json")
	must(p.WriteFile(f.prof))
	row := profile.BenchMetrics{IPC: p.IPC, Coverage: p.Coverage, Accuracy: p.Accuracy}
	rep := &profile.BenchReport{Prefetcher: "caps", Scheduler: "pas", Benchmarks: map[string]profile.BenchMetrics{"MM": row}}
	f.bench, f.benchBad, f.benchNoMM = path("bench.json"), path("bad.bench.json"), path("nomm.bench.json")
	must(rep.WriteFile(f.bench))
	p.IPC /= 2
	must(p.WriteFile(f.profBad))
	rep.Benchmarks["MM"] = profile.BenchMetrics{IPC: p.IPC, Coverage: row.Coverage, Accuracy: row.Accuracy}
	must(rep.WriteFile(f.benchBad))
	rep.Benchmarks = map[string]profile.BenchMetrics{"CNV": row}
	must(rep.WriteFile(f.benchNoMM))

	mp := r.profs[lenses.Mem.Name].(*memlens.Profile)
	if mp.Locality.RowHitRate == 0 {
		t.Fatal("memlens profile has no row hits to regress")
	}
	f.mem, f.memBad = path("run.mem.json"), path("bad.mem.json")
	must(mp.WriteFile(f.mem))
	mp.Locality.RowHitRate /= 2
	must(mp.WriteFile(f.memBad))

	sp := r.profs[lenses.Sched.Name].(*schedlens.Profile)
	if sp.Table.DistHitRate == 0 {
		t.Fatal("schedlens profile has no DIST hits to regress")
	}
	f.sched, f.schedBad = path("run.sched.json"), path("bad.sched.json")
	must(sp.WriteFile(f.sched))
	sp.Table.DistHitRate /= 2
	must(sp.WriteFile(f.schedBad))

	// hostprof measures wall-clock, so its profiles come from the golden
	// fixture rather than from the run.
	hp, err := hostprof.ReadFile(filepath.Join(goldenDir, "MM-caps-pas.host.json"))
	must(err)
	f.host, f.hostBad = path("run.host.json"), path("bad.host.json")
	must(hp.WriteFile(f.host))
	hp.WallNS *= 2
	must(hp.WriteFile(f.hostBad))

	// Speed reports are wall-clock too: hand-built, one bench.
	speed := &experiments.SpeedReport{MaxInsts: cfg.MaxInsts, WallMS: 100,
		Entries: []experiments.SpeedEntry{{Bench: "MM", Cycles: st.Cycles, Instructions: st.Instructions, WallMS: 100}}}
	f.speed, f.speedBad, f.speedWork = path("speed.json"), path("bad.speed.json"), path("work.speed.json")
	must(speed.WriteFile(f.speed))
	speed.Entries[0].WallMS, speed.WallMS = 130, 130
	must(speed.WriteFile(f.speedBad))
	speed.Entries[0].WallMS, speed.WallMS = 100, 100
	speed.Entries[0].Cycles++
	must(speed.WriteFile(f.speedWork))
	return f
}

// TestRunExitCodes pins the exit contract of the regression gates and the
// report subcommands: 0 when clean, 1 only for a regression past threshold
// or a failed check, 2 for a usage error or an input that cannot be loaded.
// The stall lens's rows keep their short names: the "diff" rows drive
// stall-diff, the "report" rows stall.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	f := writeProfiles(t, dir)
	missing := filepath.Join(dir, "missing.json")
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A JSON null, what encoding a nil profile writes, loads nowhere.
	null := filepath.Join(dir, "null.json")
	if err := os.WriteFile(null, []byte("null\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no args", nil, 2},
		{"help", []string{"help"}, 0},
		{"unknown subcommand", []string{"bogus"}, 2},

		{"diff self", []string{"stall-diff", f.prof, f.prof}, 0},
		{"diff regression", []string{"stall-diff", f.prof, f.profBad}, 1},
		{"diff improvement", []string{"stall-diff", f.profBad, f.prof}, 0},
		{"diff loose threshold", []string{"stall-diff", "-ipc", "0.9", f.prof, f.profBad}, 0},
		{"diff one path", []string{"stall-diff", f.prof}, 2},
		{"diff bad flag", []string{"stall-diff", "-bogus", f.prof, f.prof}, 2},
		{"diff -h", []string{"stall-diff", "-h"}, 0},
		{"diff missing file", []string{"stall-diff", f.prof, missing}, 2},
		{"diff unparsable file", []string{"stall-diff", garbage, f.prof}, 2},
		{"diff bench report", []string{"stall-diff", f.bench, f.prof}, 2},

		{"bench-diff self", []string{"bench-diff", f.bench, f.bench}, 0},
		{"bench-diff regression", []string{"bench-diff", f.bench, f.benchBad}, 1},
		{"bench-diff profile", []string{"bench-diff", f.bench, f.prof}, 0},
		{"bench-diff profile regression", []string{"bench-diff", f.bench, f.profBad}, 1},
		{"bench-diff profile as base", []string{"bench-diff", f.prof, f.bench}, 2},
		{"bench-diff unlisted benchmark", []string{"bench-diff", f.benchNoMM, f.prof}, 2},
		{"bench-diff one path", []string{"bench-diff", f.bench}, 2},
		{"bench-diff missing file", []string{"bench-diff", f.bench, missing}, 2},
		{"bench-diff null file", []string{"bench-diff", f.bench, null}, 2},

		{"mem-diff self", []string{"mem-diff", f.mem, f.mem}, 0},
		{"mem-diff regression", []string{"mem-diff", f.mem, f.memBad}, 1},
		{"mem-diff improvement", []string{"mem-diff", f.memBad, f.mem}, 0},
		{"mem-diff one path", []string{"mem-diff", f.mem}, 2},
		{"mem-diff bad flag", []string{"mem-diff", "-bogus", f.mem, f.mem}, 2},
		{"mem-diff missing file", []string{"mem-diff", missing, f.mem}, 2},
		{"mem-diff unparsable file", []string{"mem-diff", f.mem, garbage}, 2},
		{"mem-diff null file", []string{"mem-diff", f.mem, null}, 2},

		{"sched-diff self", []string{"sched-diff", f.sched, f.sched}, 0},
		{"sched-diff regression", []string{"sched-diff", f.sched, f.schedBad}, 1},
		{"sched-diff improvement", []string{"sched-diff", f.schedBad, f.sched}, 0},
		{"sched-diff one path", []string{"sched-diff", f.sched}, 2},
		{"sched-diff bad flag", []string{"sched-diff", "-bogus", f.sched, f.sched}, 2},
		{"sched-diff missing file", []string{"sched-diff", f.sched, missing}, 2},
		{"sched-diff unparsable file", []string{"sched-diff", garbage, f.sched}, 2},
		{"sched-diff stall profiles", []string{"sched-diff", f.prof, f.prof}, 2},

		{"host-diff self", []string{"host-diff", f.host, f.host}, 0},
		{"host-diff regression", []string{"host-diff", f.host, f.hostBad}, 1},
		{"host-diff improvement", []string{"host-diff", f.hostBad, f.host}, 0},
		{"host-diff loose threshold", []string{"host-diff", "-wall", "2", f.host, f.hostBad}, 0},
		{"host-diff one path", []string{"host-diff", f.host}, 2},
		{"host-diff bad flag", []string{"host-diff", "-bogus", f.host, f.host}, 2},
		{"host-diff missing file", []string{"host-diff", f.host, missing}, 2},
		{"host-diff unparsable file", []string{"host-diff", garbage, f.host}, 2},

		{"speed-diff self", []string{"speed-diff", f.speed, f.speed}, 0},
		{"speed-diff slower", []string{"speed-diff", f.speed, f.speedBad}, 1},
		{"speed-diff faster", []string{"speed-diff", f.speedBad, f.speed}, 0},
		{"speed-diff loose tolerance", []string{"speed-diff", "-tolerance", "0.5", f.speed, f.speedBad}, 0},
		{"speed-diff changed work", []string{"speed-diff", f.speed, f.speedWork}, 1},
		{"speed-diff one path", []string{"speed-diff", f.speed}, 2},
		{"speed-diff missing file", []string{"speed-diff", f.speed, missing}, 2},
		{"speed-diff unparsable file", []string{"speed-diff", garbage, f.speed}, 2},

		{"report html", []string{"stall", f.prof, "-html", filepath.Join(dir, "report.html")}, 0},
		{"stall text", []string{"stall", f.prof}, 0},
		{"report no path", []string{"stall"}, 2},
		{"report missing file", []string{"stall", missing}, 2},
		{"report unparsable file", []string{"stall", garbage}, 2},
		{"stall null file", []string{"stall", null}, 2},
		{"report is gone", []string{"report", f.prof}, 2},
		{"diff is gone", []string{"diff", f.prof, f.prof}, 2},

		{"host text", []string{"host", f.host}, 0},
		{"host html joined", []string{"host", f.host, "-html", filepath.Join(dir, "host.html"), "-profile", f.prof}, 0},
		{"host validate", []string{"host", "-validate", "-tolerance", "0.9", f.host}, 0},
		{"host validate fails", []string{"host", "-validate", "-tolerance", "0.0001", f.hostBad}, 1},
		{"host no path", []string{"host"}, 2},
		{"host missing file", []string{"host", missing}, 2},
		{"host unparsable file", []string{"host", garbage}, 2},
		{"host memlens profile", []string{"host", f.mem}, 2},
		{"host missing join", []string{"host", f.host, "-html", filepath.Join(dir, "host.html"), "-profile", missing}, 2},
		{"host null join", []string{"host", f.host, "-html", filepath.Join(dir, "host.html"), "-profile", null}, 2},

		{"mem text", []string{"mem", f.mem}, 0},
		{"mem html", []string{"mem", f.mem, "-html", filepath.Join(dir, "mem.html")}, 0},
		{"mem no path", []string{"mem"}, 2},
		{"mem missing file", []string{"mem", missing}, 2},
		{"mem unparsable file", []string{"mem", garbage}, 2},
		{"mem bench report", []string{"mem", f.bench}, 2},

		{"sched text", []string{"sched", f.sched}, 0},
		{"sched html", []string{"sched", f.sched, "-html", filepath.Join(dir, "sched.html")}, 0},
		{"sched no path", []string{"sched"}, 2},
		{"sched missing file", []string{"sched", missing}, 2},
		{"sched unparsable file", []string{"sched", garbage}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != c.code {
				t.Errorf("run(%q) = %d, want %d\nstdout:\n%s\nstderr:\n%s", c.args, got, c.code, &stdout, &stderr)
			}
		})
	}
}
