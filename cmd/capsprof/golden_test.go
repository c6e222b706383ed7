package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caps/internal/hostprof"
	"caps/internal/lenses"
	"caps/internal/profile"
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
	type file struct {
		name  string
		write func(io.Writer) error
	}
	var files []file
	for _, l := range simLenses {
		p := r.profs[l.Name]
		stem := "MM-caps-pas" + strings.TrimSuffix(l.Suffix, ".json")
		files = append(files,
			file{stem + ".json", jsonOf(p.WriteFile)},
			file{stem + ".txt", p.WriteText},
			file{stem + ".html", p.(interface{ WriteHTML(io.Writer) error }).WriteHTML})
	}
	prof := r.profs[lenses.Stall.Name].(*profile.Profile)
	files = append(files,
		file{"MM-caps-pas.host.txt", hp.WriteText},
		file{"MM-caps-pas.host.html", func(w io.Writer) error { return hp.WriteHTML(w, nil) }},
		file{"MM-caps-pas.host-joined.html", func(w io.Writer) error { return hp.WriteHTML(w, prof) }})
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
