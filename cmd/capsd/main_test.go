package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"caps/internal/config"
	"caps/internal/experiments"
	"caps/internal/runstore"
)

// populate stores one short real run (with its capsprof profile) and a copy
// of it with IPC halved, which supersedes the original under the same
// identity. It returns the two record IDs.
func populate(t *testing.T, dir string) (id, halvedID string) {
	t.Helper()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.MaxInsts = 40_000
	var storeErr error
	s := experiments.NewSuite(cfg, experiments.WithBenches([]string{"MM"}),
		experiments.WithRunStore(store, func(_ experiments.RunKey, err error) { storeErr = err }))
	if _, err := s.Run(experiments.PrefetcherKey("MM", "caps")); err != nil {
		t.Fatal(err)
	}
	if storeErr != nil {
		t.Fatal(storeErr)
	}
	entries := store.List(runstore.Query{})
	if len(entries) != 1 {
		t.Fatalf("store holds %d runs, want 1", len(entries))
	}
	rec, err := store.Get(entries[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Profile == nil {
		t.Fatal("stored run has no profile")
	}
	bad := *rec
	badProfile := *rec.Profile
	badProfile.IPC /= 2
	bad.IPC /= 2
	bad.Profile = &badProfile
	bad.ID = "" // Put re-addresses the changed content
	halvedID, _, err = store.Put(&bad)
	if err != nil {
		t.Fatal(err)
	}
	return rec.ID, halvedID
}

// TestRun pins capsd's command-line contract: output of each subcommand
// and the exit status — 0 clean, 1 only for a diff regression, 2 for usage
// and store errors.
func TestRun(t *testing.T) {
	empty := t.TempDir()
	missing := filepath.Join(t.TempDir(), "no-store")
	pop := t.TempDir()
	id, halvedID := populate(t, pop)

	cases := []struct {
		name    string
		args    []string
		code    int
		stdout  string // substring stdout must contain
		stderr  string // substring stderr must contain
		without string // substring stdout must not contain
	}{
		{name: "no args", args: nil, code: 2, stderr: "usage: capsd"},
		{name: "help", args: []string{"help"}, code: 0, stderr: "usage: capsd"},
		{name: "unknown command", args: []string{"serve"}, code: 2, stderr: `unknown command "serve"`},
		{name: "ls empty store", args: []string{"ls", "-store", empty}, code: 0, stdout: "no stored runs"},
		{name: "ls populated store", args: []string{"ls", "-store", pop}, code: 0, stdout: halvedID, without: id},
		{name: "ls -all", args: []string{"ls", "-store", pop, "-all"}, code: 0, stdout: id},
		{name: "ls -h", args: []string{"ls", "-h"}, code: 0, stderr: "-store"},
		{name: "ls bad flag", args: []string{"ls", "-bogus"}, code: 2, stderr: "-bogus"},
		{name: "ls missing store", args: []string{"ls", "-store", missing}, code: 2, stderr: "no run store"},
		{name: "show id", args: []string{"show", "-store", pop, id}, code: 0, stdout: "run       " + id},
		{name: "show unique prefix", args: []string{"show", "-store", pop, id[:8]}, code: 0, stdout: "run       " + id},
		{name: "show no id", args: []string{"show", "-store", pop}, code: 2, stderr: "want exactly one run id"},
		{name: "show unknown id", args: []string{"show", "-store", pop, "nosuchrun"}, code: 2, stderr: `no run "nosuchrun"`},
		{name: "diff self", args: []string{"diff", "-store", pop, id, id}, code: 0, stdout: "no regressions"},
		{name: "diff halved IPC", args: []string{"diff", "-store", pop, id, halvedID}, code: 1, stdout: "regression(s):"},
		{name: "diff no ids", args: []string{"diff", "-store", pop}, code: 2, stderr: "want <base-id> <cur-id>"},
		{name: "diff missing store", args: []string{"diff", "-store", missing, "a", "b"}, code: 2, stderr: "no run store"},
		{name: "gc empty store", args: []string{"gc", "-store", empty}, code: 0, stdout: "dropped 0 superseded record(s), 0 live"},
		// Last: gc rewrites the populated store's log.
		{name: "gc populated store", args: []string{"gc", "-store", pop}, code: 0, stdout: "dropped 1 superseded record(s), 1 live"},
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
			if c.without != "" && strings.Contains(stdout.String(), c.without) {
				t.Errorf("stdout holds %q:\n%s", c.without, &stdout)
			}
		})
	}
}
