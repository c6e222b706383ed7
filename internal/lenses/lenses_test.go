package lenses

import (
	"bytes"
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"caps/internal/config"
	"caps/internal/kernels"
	"caps/internal/profile"
	"caps/internal/sim"
	"caps/internal/stats"
)

// TestRegistry runs every registered lens through its whole contract on
// one short run: attach, build, validate, write, load, render, and a
// self-diff that must gate nothing. Surfaces address lenses by name, flag
// and file suffix, so those must be unique.
func TestRegistry(t *testing.T) {
	cfg := config.Default()
	cfg.Scheduler = config.SchedPAS
	cfg.MaxInsts = 20_000
	k, err := kernels.ByAbbr("MM")
	if err != nil {
		t.Fatal(err)
	}
	opts := []sim.Option{sim.WithPrefetcher("caps")}
	builds := make([]func(Run, *stats.Sim) Profile, len(All))
	for i, l := range All {
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

	seen := make(map[string]bool)
	dir := t.TempDir()
	for i, l := range All {
		for _, key := range []string{"name " + l.Name, "flag " + l.Flag, "suffix " + l.Suffix} {
			if seen[key] {
				t.Errorf("two lenses share %s", key)
			}
			seen[key] = true
		}
		p := builds[i](Run{Bench: "MM", Prefetcher: "caps", Scheduler: string(cfg.Scheduler)}, st)
		// A timed lens's check is statistical; a 20k-instruction run is too
		// short to hold it reliably.
		if !l.Timed {
			if err := l.Validate(p, st); err != nil {
				t.Errorf("%s: Validate: %v", l.Name, err)
			}
		}
		path := filepath.Join(dir, "MM"+l.Suffix)
		if err := p.WriteFile(path); err != nil {
			t.Fatalf("%s: WriteFile: %v", l.Name, err)
		}
		got, err := l.Load(path)
		if err != nil {
			t.Fatalf("%s: Load: %v", l.Name, err)
		}
		if l.Summary(got) == "" {
			t.Errorf("%s: empty Summary", l.Name)
		}
		var text, html bytes.Buffer
		if err := got.WriteText(&text); err != nil || text.Len() == 0 {
			t.Errorf("%s: WriteText wrote %d bytes: %v", l.Name, text.Len(), err)
		}
		render, code := l.Show(flag.NewFlagSet(l.Name, flag.ContinueOnError))(got, path, &text, &text)
		if code != 0 {
			t.Fatalf("%s: show step exited %d", l.Name, code)
		}
		if err := render(&html); err != nil || html.Len() == 0 {
			t.Errorf("%s: HTML wrote %d bytes: %v", l.Name, html.Len(), err)
		}
		gate := l.Diff(flag.NewFlagSet(l.Name+"-diff", flag.ContinueOnError))
		if regs := gate(got, got, &text); len(regs) != 0 {
			t.Errorf("%s: self-diff gated %v", l.Name, regs)
		}
	}
}

// TestStallShowWarnsOnTruncation requires capsprof stall to say when the
// per-PC or per-CTA ledger hit its cap, since the tables then understate
// activity; an untruncated profile renders without the warning.
func TestStallShowWarnsOnTruncation(t *testing.T) {
	for _, trunc := range []int64{0, 3} {
		p := &profile.Profile{StallStack: map[string]int64{}, TruncatedPCs: trunc}
		var stderr bytes.Buffer
		render, code := Stall.Show(flag.NewFlagSet("stall", flag.ContinueOnError))(p, "p.json", io.Discard, &stderr)
		if code != 0 || render == nil {
			t.Fatalf("show step exited %d", code)
		}
		if got := strings.Contains(stderr.String(), "ledger cap reached"); got != (trunc > 0) {
			t.Errorf("truncated %d: warning printed = %v:\n%s", trunc, got, &stderr)
		}
	}
}
