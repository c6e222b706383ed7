package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"caps/internal/hostprof"
	"caps/internal/memlens"
	"caps/internal/profile"
	"caps/internal/schedlens"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenDir holds the committed lens outputs of the short MM run, plus
// the host-profile fixture the host reports are rendered from (hostprof
// measures wall-clock, so its JSON cannot be regenerated byte for byte).
const goldenDir = "testdata/golden"

// TestGolden pins every lens's profile JSON and text and HTML reports byte
// for byte. Run `go test ./cmd/capsprof -run TestGolden -update` to
// regenerate the files after a deliberate change in lens output.
func TestGolden(t *testing.T) {
	r := runMM(t)
	st := r.st
	mp := r.ml.Build(memlens.Meta{Bench: "MM", Prefetcher: "caps", Cycles: st.Cycles})
	sp := r.sl.Build(schedlens.Meta{Bench: "MM", Prefetcher: "caps", Scheduler: string(r.cfg.Scheduler), Cycles: st.Cycles})
	prof, err := r.col.Build(profile.Meta{Bench: "MM", Prefetcher: "caps", Scheduler: string(r.cfg.Scheduler), SMs: r.cfg.NumSMs}, st)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hostprof.ReadFile(filepath.Join(goldenDir, "MM-caps-pas.host.json"))
	if err != nil {
		t.Fatal(err)
	}

	jsonOf := func(write func(string) error) func(io.Writer) error {
		return func(w io.Writer) error {
			path := filepath.Join(t.TempDir(), "p.json")
			if err := write(path); err != nil {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			_, err = w.Write(data)
			return err
		}
	}
	files := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"MM-caps-pas.mem.json", jsonOf(mp.WriteFile)},
		{"MM-caps-pas.mem.txt", mp.WriteText},
		{"MM-caps-pas.mem.html", mp.WriteHTML},
		{"MM-caps-pas.sched.json", jsonOf(sp.WriteFile)},
		{"MM-caps-pas.sched.txt", sp.WriteText},
		{"MM-caps-pas.sched.html", sp.WriteHTML},
		{"MM-caps-pas.host.txt", hp.WriteText},
		{"MM-caps-pas.host.html", func(w io.Writer) error { return hp.WriteHTML(w, nil) }},
		{"MM-caps-pas.host-joined.html", func(w io.Writer) error { return hp.WriteHTML(w, prof) }},
	}
	for _, f := range files {
		t.Run(f.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := f.write(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(goldenDir, f.name)
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from the golden file (%d bytes, want %d); rerun with -update only for a deliberate output change",
					f.name, got.Len(), len(want))
			}
		})
	}
}
