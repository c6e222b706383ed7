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

// TestRun pins capscope's command-line contract: exit 0 clean, 1 for a
// failed run or an unreadable dump, 2 for a usage error. The smoke row
// keeps its dump, which the decode row then reads back.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "smoke.flight.jsonl")
	garbage := filepath.Join(dir, "garbage.flight.jsonl")
	if err := os.WriteFile(garbage, []byte("not a dump\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name           string
		args           []string
		code           int
		stdout, stderr string // substrings the streams must contain
	}{
		{name: "no command", args: nil, code: 2, stderr: "capscope decode"},
		{name: "help", args: []string{"-h"}, code: 0, stderr: "capscope bisect"},
		{name: "unknown command", args: []string{"bogus"}, code: 2, stderr: `unknown command "bogus"`},
		{name: "bad flag", args: []string{"decode", "-bogus"}, code: 2, stderr: "-bogus"},
		{name: "decode without a dump", args: []string{"decode"}, code: 2, stderr: "exactly one dump file"},
		{name: "bisect without perturb", args: []string{"bisect"}, code: 2, stderr: "-perturb CYCLE is required"},
		{name: "every too large", args: []string{"bisect", "-perturb", "10", "-every", fmt.Sprint(sim.MaxProgressEvery + 1)},
			code: 2, stderr: "exceeds the maximum"},
		{name: "smoke", args: []string{"smoke", "-keep", dump}, code: 0, stdout: "capscope smoke ok"},
		{name: "decode", args: []string{"decode", "-trace", filepath.Join(dir, "t.json"), dump}, code: 0,
			stdout: "reason        invariant-violation"},
		{name: "unreadable dump", args: []string{"decode", garbage}, code: 1, stderr: "capscope:"},
		{name: "unknown benchmark", args: []string{"bisect", "-bench", "NOPE", "-perturb", "10"}, code: 1, stderr: "capscope:"},
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
