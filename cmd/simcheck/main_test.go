package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caps/internal/sim"
)

// TestRun pins simcheck's command-line contract: exit 0 clean, 1 for
// findings (here a trace that is not JSON and a determinism run that
// fails), 2 for a usage error.
func TestRun(t *testing.T) {
	garbage := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(garbage, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name           string
		args           []string
		code           int
		stdout, stderr string // substrings the streams must contain
	}{
		{name: "bad flag", args: []string{"-bogus"}, code: 2, stderr: "-bogus"},
		{name: "help", args: []string{"-h"}, code: 0, stderr: "-mode"},
		{name: "unknown mode", args: []string{"-mode=bogus"}, code: 2, stderr: `unknown mode "bogus"`},
		{name: "isolint is gone", args: []string{"-mode=isolint"}, code: 2, stderr: `unknown mode "isolint"`},
		{name: "inventory is gone", args: []string{"-inventory"}, code: 2, stderr: "provided but not defined: -inventory"},
		{name: "every too large", args: []string{"-mode=determinism", "-every", fmt.Sprint(sim.MaxProgressEvery + 1)},
			code: 2, stderr: "exceeds the maximum"},
		{name: "no traces", args: []string{"-mode=tracecheck"}, code: 2, stderr: "at least one trace file"},
		{name: "clean determinism", args: []string{"-mode=determinism", "-benches", "MM", "-insts", "2000", "-every", "512"},
			code: 0, stdout: "MM     caps  reproducible ("},
		{name: "unknown benchmark", args: []string{"-mode=determinism", "-benches", "NOPE", "-insts", "2000"},
			code: 1, stderr: "NOPE/caps"},
		{name: "bad trace", args: []string{"-mode=tracecheck", garbage}, code: 1, stderr: "not valid JSON"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != c.code {
				t.Fatalf("run(%q) = %d, want %d\nstdout:\n%s\nstderr:\n%s", c.args, got, c.code, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), c.stdout) {
				t.Errorf("stdout lacks %q:\n%s", c.stdout, &stdout)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, &stderr)
			}
		})
	}
}
