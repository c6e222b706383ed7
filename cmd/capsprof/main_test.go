package main

import (
	"os"
	"path/filepath"
	"testing"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/memlens"
	"caps/internal/profile"
	"caps/internal/schedlens"
	"caps/internal/sim"
)

// lensFiles are the profiles one short run wrote, plus a copy of each with
// an injected regression.
type lensFiles struct {
	prof, profBad   string
	mem, memBad     string
	sched, schedBad string
}

// writeProfiles runs MM under CAPS with capsprof, memlens and schedlens
// attached and writes each profile, then a copy with its gated headline
// metric halved.
func writeProfiles(t *testing.T, dir string) lensFiles {
	t.Helper()
	cfg := config.Default()
	cfg.Scheduler = config.SchedPAS
	cfg.MaxInsts = 40_000
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	snk := sim.NewSink(cfg, false, 0)
	col := profile.NewCollector(cfg.NumSMs)
	snk.Attach(col)
	ml, sl := memlens.ForConfig(cfg), schedlens.ForConfig(cfg)
	g, err := sim.New(cfg, k, sim.WithPrefetcher("caps"), sim.WithObs(snk), sim.WithMemLens(ml), sim.WithSchedLens(sl))
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	g.Close()

	f := lensFiles{}
	path := func(name string) string { return filepath.Join(dir, name) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	p, err := col.Build(profile.Meta{Bench: "MM", Prefetcher: "caps", Scheduler: string(cfg.Scheduler), SMs: cfg.NumSMs}, st)
	must(err)
	f.prof, f.profBad = path("run.profile.json"), path("bad.profile.json")
	must(p.WriteFile(f.prof))
	p.IPC /= 2
	must(p.WriteFile(f.profBad))

	mp := ml.Build(memlens.Meta{Bench: "MM", Prefetcher: "caps", Cycles: st.Cycles})
	if mp.Locality.RowHitRate == 0 {
		t.Fatal("memlens profile has no row hits to regress")
	}
	f.mem, f.memBad = path("run.mem.json"), path("bad.mem.json")
	must(mp.WriteFile(f.mem))
	mp.Locality.RowHitRate /= 2
	must(mp.WriteFile(f.memBad))

	sp := sl.Build(schedlens.Meta{Bench: "MM", Prefetcher: "caps", Scheduler: string(cfg.Scheduler), Cycles: st.Cycles})
	if sp.Table.DistHitRate == 0 {
		t.Fatal("schedlens profile has no DIST hits to regress")
	}
	f.sched, f.schedBad = path("run.sched.json"), path("bad.sched.json")
	must(sp.WriteFile(f.sched))
	sp.Table.DistHitRate /= 2
	must(sp.WriteFile(f.schedBad))
	return f
}

// TestRunExitCodes pins the regression gates' exit contract: 0 when
// clean, 1 only for a regression past threshold, 2 for a usage error or
// an input that cannot be loaded.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	f := writeProfiles(t, dir)
	missing := filepath.Join(dir, "missing.json")
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
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

		{"diff self", []string{"diff", f.prof, f.prof}, 0},
		{"diff regression", []string{"diff", f.prof, f.profBad}, 1},
		{"diff improvement", []string{"diff", f.profBad, f.prof}, 0},
		{"diff loose threshold", []string{"diff", "-ipc", "0.9", f.prof, f.profBad}, 0},
		{"diff one path", []string{"diff", f.prof}, 2},
		{"diff bad flag", []string{"diff", "-bogus", f.prof, f.prof}, 2},
		{"diff -h", []string{"diff", "-h"}, 0},
		{"diff missing file", []string{"diff", f.prof, missing}, 2},
		{"diff unparsable file", []string{"diff", garbage, f.prof}, 2},

		{"mem-diff self", []string{"mem-diff", f.mem, f.mem}, 0},
		{"mem-diff regression", []string{"mem-diff", f.mem, f.memBad}, 1},
		{"mem-diff improvement", []string{"mem-diff", f.memBad, f.mem}, 0},
		{"mem-diff one path", []string{"mem-diff", f.mem}, 2},
		{"mem-diff bad flag", []string{"mem-diff", "-bogus", f.mem, f.mem}, 2},
		{"mem-diff missing file", []string{"mem-diff", missing, f.mem}, 2},
		{"mem-diff unparsable file", []string{"mem-diff", f.mem, garbage}, 2},

		{"sched-diff self", []string{"sched-diff", f.sched, f.sched}, 0},
		{"sched-diff regression", []string{"sched-diff", f.sched, f.schedBad}, 1},
		{"sched-diff improvement", []string{"sched-diff", f.schedBad, f.sched}, 0},
		{"sched-diff one path", []string{"sched-diff", f.sched}, 2},
		{"sched-diff bad flag", []string{"sched-diff", "-bogus", f.sched, f.sched}, 2},
		{"sched-diff missing file", []string{"sched-diff", f.sched, missing}, 2},
		{"sched-diff unparsable file", []string{"sched-diff", garbage, f.sched}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := run(c.args); got != c.code {
				t.Errorf("run(%q) = %d, want %d", c.args, got, c.code)
			}
		})
	}
}
