package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caps/internal/experiments"
	"caps/internal/lenses"
)

// TestRun pins capsweep's command-line contract: exit 0 for a clean sweep,
// 1 when a run or an output fails, 2 for a usage error. The lens rows run
// two benchmarks on two suite workers, whose per-run callbacks write and
// report concurrently; `go test -race` covers them.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	lensArgs := func(root string) []string {
		var args []string
		for _, l := range lenses.All {
			args = append(args, "-"+l.Flag+"-dir", filepath.Join(root, l.Name))
		}
		return args
	}
	sweep := func(root string) []string {
		return append([]string{"-bench-json", filepath.Join(root, "bench.json"),
			"-benches", "MM,CNV", "-insts", "20000", "-par", "2"}, lensArgs(root)...)
	}
	// Directories squatting on both runs' memlens files make those writes
	// fail, from both suite workers.
	blocked := filepath.Join(dir, "blocked")
	for _, b := range []string{"MM", "CNV"} {
		squat := filepath.Join(blocked, lenses.Mem.Name, experiments.PrefetcherKey(b, "caps").Name()+lenses.Mem.Suffix)
		if err := os.MkdirAll(squat, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // substring stderr must contain
	}{
		{name: "bad flag", args: []string{"-bogus"}, code: 2, stderr: "-bogus"},
		{name: "workers is gone", args: []string{"-workers", "2"}, code: 2, stderr: "provided but not defined: -workers"},
		{name: "store is gone", args: []string{"-store", "x"}, code: 2, stderr: "provided but not defined: -store"},
		{name: "help", args: []string{"-h"}, code: 0, stderr: "-memlens-dir"},
		{name: "nothing to run", args: nil, code: 2, stderr: "-fig"},
		{name: "lens dirs", args: sweep(filepath.Join(dir, "ok")), code: 0},
		{name: "unwritable lens files", args: sweep(blocked), code: 1, stderr: "capsweep: memlens CNV-caps-pas:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != c.code {
				t.Fatalf("run(%q) = %d, want %d\nstdout:\n%s\nstderr:\n%s", c.args, got, c.code, &stdout, &stderr)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, &stderr)
			}
		})
	}

	// The clean sweep left one loadable profile per lens and run key.
	root := filepath.Join(dir, "ok")
	keys := []experiments.RunKey{experiments.PrefetcherKey("MM", "caps"), experiments.PrefetcherKey("CNV", "caps")}
	for _, l := range lenses.All {
		entries, err := os.ReadDir(filepath.Join(root, l.Name))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(keys) {
			t.Errorf("%s: %d files, want one per run key (%d)", l.Name, len(entries), len(keys))
		}
		for _, k := range keys {
			if _, err := l.Load(filepath.Join(root, l.Name, k.Name()+l.Suffix)); err != nil {
				t.Errorf("%s: %v", l.Name, err)
			}
		}
	}
}
