package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caps/internal/lenses"
	"caps/internal/sim"
)

// TestRun pins capsim's command-line contract: exit 0 for a completed run,
// 2 for usage errors, with the run's statistics on stdout and diagnostics
// on stderr.
func TestRun(t *testing.T) {
	short := []string{"-bench", "MM", "-prefetch", "caps", "-insts", "5000"}
	// An aborted run still writes its lens profiles, unvalidated.
	aborted := filepath.Join(t.TempDir(), "aborted.profile.json")
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring stdout must contain
		stderr string // substring stderr must contain
	}{
		{name: "clean run", args: short, code: 0, stdout: "MM  prefetch=caps  sched=pas"},
		{name: "list", args: []string{"-list"}, code: 0, stdout: "prefetchers:"},
		{name: "help", args: []string{"-h"}, code: 0, stderr: "-bench"},
		{name: "bad flag", args: []string{"-bogus"}, code: 2, stderr: "-bogus"},
		{name: "workers is gone", args: []string{"-workers", "2"}, code: 2, stderr: "provided but not defined: -workers"},
		{name: "store is gone", args: []string{"-store", "x"}, code: 2, stderr: "provided but not defined: -store"},
		{name: "unknown bench", args: []string{"-bench", "NOPE", "-insts", "5000"}, code: 2, stderr: "NOPE"},
		{name: "unknown prefetcher", args: []string{"-prefetch", "nope"}, code: 2, stderr: `unknown prefetcher "nope"`},
		{name: "unknown scheduler", args: []string{"-sched", "nope"}, code: 2, stderr: `unknown scheduler "nope"`},
		{name: "beat out of range", args: []string{"-beat", fmt.Sprint(sim.MaxProgressEvery + 1)}, code: 2, stderr: "exceeds the maximum"},
		{name: "aborted run", args: []string{"-bench", "MM", "-prefetch", "caps", "-insts", "20000", "-watchdog", "50", "-profile", aborted},
			code: 1, stdout: "MM  prefetch=caps", stderr: "no forward progress"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != c.code {
				t.Errorf("run(%q) = %d, want %d\nstdout:\n%s\nstderr:\n%s", c.args, got, c.code, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), c.stdout) {
				t.Errorf("stdout lacks %q:\n%s", c.stdout, &stdout)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, &stderr)
			}
		})
	}
	if _, err := lenses.Stall.Load(aborted); err != nil {
		t.Errorf("the aborted run's profile does not load: %v", err)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/MM-caps-20k.metrics.csv")

// mmTraceSHA256 is the digest of the -trace Chrome JSON of the run
// TestMetricsAndTracePinned makes (about 11 MB, too large to commit).
const mmTraceSHA256 = "99c4e1b04d0fbd27bcfec334dbbbc670c713f8db44d2a8397c196de909797572"

// TestMetricsAndTracePinned pins the observability output of a 20k MM
// CAPS run byte for byte: the -metrics CSV against a committed golden
// file and the -trace JSON by its SHA-256. Run `go test ./cmd/capsim -run
// TestMetricsAndTracePinned -update` to rewrite the CSV after a deliberate
// change in the counters; a deliberate trace change updates the digest.
func TestMetricsAndTracePinned(t *testing.T) {
	dir := t.TempDir()
	csv, trace := filepath.Join(dir, "m.csv"), filepath.Join(dir, "t.json")
	args := []string{"-bench", "MM", "-prefetch", "caps", "-insts", "20000", "-metrics", csv, "-trace", trace}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%q) = %d\nstderr:\n%s", args, code, &stderr)
	}
	got, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "MM-caps-20k.metrics.csv")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-metrics CSV differs from %s (%d bytes, want %d)", golden, len(got), len(want))
	}
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(tr)
	if d := hex.EncodeToString(sum[:]); d != mmTraceSHA256 {
		t.Errorf("-trace JSON digest = %s, want %s (%d bytes)", d, mmTraceSHA256, len(tr))
	}
}

// TestMetricsIndependentOfLenses requires the -metrics CSV to come out
// byte-identical whether or not capsprof, memlens and schedlens ride the
// same sink: attaching a consumer makes its kinds live, and a live kind
// must count exactly as a dead one does.
func TestMetricsIndependentOfLenses(t *testing.T) {
	dir := t.TempDir()
	metrics := func(name string, extra ...string) []byte {
		t.Helper()
		out := filepath.Join(dir, name+".csv")
		args := append([]string{"-bench", "MM", "-prefetch", "caps", "-insts", "20000", "-metrics", out}, extra...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%q) = %d\nstderr:\n%s", args, code, &stderr)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bare := metrics("bare")
	lensed := metrics("lensed",
		"-profile", filepath.Join(dir, "p.json"),
		"-memlens", filepath.Join(dir, "m.json"),
		"-schedlens", filepath.Join(dir, "s.json"))
	if !bytes.Equal(bare, lensed) {
		t.Fatalf("-metrics CSV changes when lenses attach:\nbare:\n%s\nlensed:\n%s", bare, lensed)
	}
	if !bytes.Contains(bare, []byte("l1_resfail_total")) {
		t.Fatalf("metrics CSV lacks reservation-fail counters:\n%s", bare)
	}
}
